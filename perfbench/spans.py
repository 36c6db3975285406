"""Spans around calls into each commdeg layer, for the traced run only.

The wrappers are installed from here, with no change to the library. Many
commdeg modules import functions by value (``from commdeg.degrees import
degree_mn``), so a function is replaced under every name any loaded
commdeg module binds it to; methods are replaced on their class. Calls
made after ``install`` are therefore seen wherever they come from.

A span's self time is its duration minus the durations of the spans opened
inside it, so self times never overlap and their sum stays within the
traced wall time.
"""
from __future__ import annotations

import functools
import sys
from collections import defaultdict
from time import perf_counter


def _order_squared(counts, key, args, result):
    counts[key] += len(args[0]) ** 2


def _calls(counts, key, args, result):
    counts[key] += 1


def _validated(counts, key, args, result):
    counts["groups.validate_calls"] += 1
    counts["groups.validate_entries"] += args[0].order ** 2


def _closure(counts, key, args, result):
    counts[key] += result.order


def _blocks(counts, key, args, result):
    counts[key] += len(args[0])


def _trials(counts, key, args, result):
    counts[key] += args[3]


class Tracer:
    """Self time per metric plus work counts, accumulated over spans."""

    def __init__(self):
        self.seconds = defaultdict(float)
        self.counts = defaultdict(int)
        self._open = []  # child time accumulated inside each open span
        self._undo = []

    def wrap(self, fn, metric, count=None, count_key=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._open.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = perf_counter() - start
                self.seconds[metric] += duration - self._open.pop()
                if self._open:
                    self._open[-1] += duration
            if count is not None:
                count(self.counts, count_key, args, result)
            return result

        return traced

    def _replace_everywhere(self, fn, traced):
        for name, module in list(sys.modules.items()):
            if module is None or not (name == "commdeg" or name.startswith("commdeg.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._undo.append((module, attr, fn))
                    setattr(module, attr, traced)
                elif isinstance(value, dict):  # dispatch tables, e.g. the CLI's
                    for key, entry in list(value.items()):
                        if entry is fn:
                            self._undo.append((value, key, fn))
                            value[key] = traced

    def install(self):
        from commdeg import (actions, degrees, groups, kernels, lie, rng, sampler,
                             specs, towers)

        functions = [
            (specs.build_group, "specs.closure_s", None, None),
            (specs.permutation_closure, "specs.closure_s", _closure,
             "specs.closure_elements"),
            (specs.matrix_mod_closure, "specs.closure_s", _closure,
             "specs.closure_elements"),
            (groups.direct_product, "groups.build_s", None, None),
            (groups.semidirect_product, "groups.build_s", None, None),
            (groups.quotient, "groups.build_s", None, None),
            (groups.conjugacy_classes, "groups.classes_s", None, None),
            (groups.power_map, "groups.power_map_s", None, None),
            (kernels.count_commuting_pairs, "kernels.pairs_s", _order_squared,
             "kernels.pair_evals"),
            (kernels.count_commuting_pairs_mn, "kernels.pairs_mn_s", _order_squared,
             "kernels.pair_evals"),
            (kernels.centralizer_sizes, "kernels.centralizer_sizes_s", _order_squared,
             "kernels.pair_evals"),
            (degrees.degree_bruteforce, "degrees.bruteforce_s", None, None),
            (degrees.degree_centralizer_sum, "degrees.centralizer_sum_s", None, None),
            (degrees.degree_structural, "degrees.structural_s", None, None),
            (degrees.degree_mn, "degrees.mn_s", None, None),
            (degrees.degree_mn_pushforward, "degrees.mn_pushforward_s", None, None),
            (actions.equalizer_prob_via_points, "actions.via_points_s", None, None),
            (actions.equalizer_prob_via_group, "actions.via_group_s", None, None),
            (towers.heisenberg_tower, "towers.build_s", None, None),
            (towers.elementary_tower, "towers.build_s", None, None),
            (towers.cyclic_tower, "towers.build_s", None, None),
            (towers.tower_degrees, "towers.degrees_s", None, None),
            (towers.straightness_fraction, "towers.straightness_s", None, None),
            (lie.straightness_verdict, "lie.verdict_s", None, None),
            (rng.philox4x32, "rng.philox_s", _blocks, "rng.blocks"),
            (rng.words, "rng.words_s", None, None),
            (sampler.estimate_degree_mn, "sampler.estimate_s", _trials,
             "sampler.trials"),
        ]
        methods = [
            (groups.GroupTable, "__init__", "groups.validate_s", _validated, None),
            (groups.Subgroup, "__init__", "groups.subgroup_s", _calls,
             "groups.subgroup_calls"),
        ]
        for cls in (sampler.TorusPreset, sampler.DihedralPreset, sampler.QuaternionPreset,
                    sampler.FinitePreset, sampler.ProductPreset):
            methods += [
                (cls, "from_words", "sampler.decode_s", None, None),
                (cls, "power_arrays", "sampler.predicate_s", None, None),
                (cls, "commute_arrays", "sampler.predicate_s", None, None),
            ]
        for fn, metric, count, key in functions:
            self._replace_everywhere(fn, self.wrap(fn, metric, count, key))
        for cls, attr, metric, count, key in methods:
            fn = vars(cls)[attr]
            self._undo.append((cls, attr, fn))
            setattr(cls, attr, self.wrap(fn, metric, count, key))

    def uninstall(self):
        while self._undo:
            owner, attr, fn = self._undo.pop()
            if isinstance(owner, dict):
                owner[attr] = fn
            else:
                setattr(owner, attr, fn)

    def layer_metrics(self, passes: int) -> dict[str, float]:
        """Per-pass self times and counts, with the two derived rates."""
        out = {k: v / passes for k, v in self.seconds.items()}
        out.update({k: v / passes for k, v in self.counts.items()})
        kernel_s = sum(out.get(k, 0.0) for k in
                       ("kernels.pairs_s", "kernels.pairs_mn_s",
                        "kernels.centralizer_sizes_s"))
        if kernel_s > 0:
            out["kernels.pair_evals_per_s"] = out["kernels.pair_evals"] / kernel_s
        if out.get("rng.philox_s", 0.0) > 0:
            out["rng.blocks_per_s"] = out["rng.blocks"] / out["rng.philox_s"]
        out["trace.self_s"] = sum(self.seconds.values()) / passes
        return out
