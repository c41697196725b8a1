"""Outside-in tracer for the ``subdesigns`` layers.

The tracer wraps public functions of the library from outside: nothing
under ``src/`` knows it exists.  ``from module import f`` copies the
binding into the importing module, so every ``subdesigns`` module
namespace that binds a wrapped function is patched, and every original is
put back by :meth:`Tracer.uninstall`.

Each call of a wrapped function is one span (name, start, end, parent
span, operation id).  Generators get one span per ``next()``.  Spans live
in compact arrays in memory and are written out by :meth:`Tracer.dump`
when the run ends.  Per-layer metrics are reduced from them: ``calls`` is
the span count, ``self_s`` the summed span durations minus the part their
child spans cover, and work counts (elements, cells, rows, items,
hyperplanes, subspaces) are summed from arguments or results at the
boundary.
"""

from __future__ import annotations

import functools
import json
import sys
from array import array
from time import perf_counter

import numpy as np

from subdesigns import cli
from subdesigns import design as de
from subdesigns import expander as ex
from subdesigns import fieldcore
from subdesigns import formats as fmt
from subdesigns import gf
from subdesigns import hamming as ha
from subdesigns import linalg
from subdesigns import skewpoly as sk
from subdesigns import strongbridge as sb
from subdesigns import subspace as sp
from subdesigns import sumrank as sr

# The three functions that sweep every hyperplane of a design.
SWEEPS = ("design.hyperplane_profile_sums", "design.is_cutting", "hamming.hyperplane_point_counts")


def _elems(args, kwargs, result) -> int:
    return int(np.broadcast(args[1], args[2]).size)


def _cells(args, kwargs, result) -> int:
    shape = np.shape(args[1])
    return int(shape[0] * shape[1]) if len(shape) == 2 else int(np.size(args[1]))


def _rows(args, kwargs, result) -> int:
    return int(result.shape[0])


def _cutting_hyperplanes(args, kwargs, result) -> int:
    amb = args[0].ambient
    return sp.gaussian_binomial(amb.k, 1, amb.tower.order)


def _expansion_subspaces(args, kwargs, result) -> int:
    return sum(int(data["count"]) for data in result.per_dim.values())


def _strong_subspaces(args, kwargs, result) -> int:
    s = args[1] if len(args) > 1 else kwargs["s"]
    return sp.subspace_count(args[0].ambient, s)


# (metric prefix, owner, attribute, kind, work-count name, work extractor)
# kind: "func" (module function), "method", "property" or "gen" (generator).
TARGETS = [
    ("gf.make_tower", gf, "make_tower", "func", None, None),
    ("gf.norm_table", gf.FieldTower, "norm_table", "property", None, None),
    ("fieldcore.find_irreducible", fieldcore, "find_irreducible", "func", None, None),
    ("fieldcore.mul", fieldcore.SmallField, "mul", "method", "elems", _elems),
    ("fieldcore.add", fieldcore.SmallField, "add", "method", "elems", _elems),
    ("linalg.rref", linalg, "rref", "func", "cells", _cells),
    ("linalg.matmul", linalg, "matmul", "func", None, None),
    ("linalg.right_kernel", linalg, "right_kernel", "func", None, None),
    ("linalg.intersect_rowspaces", linalg, "intersect_rowspaces", "func", None, None),
    ("subspace.enumerate_rref_matrices", sp, "enumerate_rref_matrices", "gen", None, None),
    ("subspace.enumerate_fqm_subspaces", sp, "enumerate_fqm_subspaces", "gen", None, None),
    ("subspace.meet_join", sp, "meet_join", "func", None, None),
    ("subspace.FqmSubspace.expand_fq", sp.FqmSubspace, "expand_fq", "method", None, None),
    ("subspace.canonical_projective_reps", sp, "canonical_projective_reps", "func", "rows", _rows),
    ("subspace.linear_set", sp, "linear_set", "func", None, None),
    ("design.construct", de, "construct_basis_partition", "func", None, None),
    ("design.construct", de, "construct_twisted", "func", None, None),
    ("design.construct", de, "construct_pseudoregulus", "func", None, None),
    ("design.construct", de, "construct_field_partition", "func", None, None),
    ("design.construct", de, "direct_sum", "func", None, None),
    ("design.hyperplane_profile_sums", de, "hyperplane_profile_sums", "func", "hyperplanes", _rows),
    ("design.is_cutting", de, "is_cutting", "func", "hyperplanes", _cutting_hyperplanes),
    ("design.design_profile", de, "design_profile", "func", None, None),
    ("design.classify", de, "classify", "func", None, None),
    ("hamming.hyperplane_point_counts", ha, "hyperplane_point_counts", "func", "hyperplanes", _rows),
    ("hamming.ext_system", ha, "ext_system", "func", None, None),
    ("hamming.weight_enumerator", ha, "weight_enumerator", "func", None, None),
    ("hamming.srg_from_two_intersection", ha, "srg_from_two_intersection", "func", None, None),
    ("sumrank.min_distance", sr, "min_distance", "func", None, None),
    ("sumrank.is_minimal_code", sr, "is_minimal_code", "func", None, None),
    ("skewpoly.kernel_dim", sk, "kernel_dim", "func", None, None),
    ("skewpoly.lambda_value", sk, "lambda_value", "func", None, None),
    ("skewpoly.twist", sk, "twist", "func", None, None),
    ("expander.expansion_check", ex, "expansion_check", "func", "subspaces", _expansion_subspaces),
    ("strongbridge.verify_strong", sb, "verify_strong", "func", "subspaces", _strong_subspaces),
    ("cli.main", cli, "main", "func", None, None),
    ("formats.design_from_json", fmt, "design_from_json", "func", None, None),
]

# Every per-layer metric a traced run reports, with its unit.
LAYER_METRICS = [
    ("gf.make_tower.calls", "count"),
    ("gf.make_tower.self_s", "s"),
    ("gf.tower_cache.hit_ratio", "ratio"),
    ("gf.norm_table.self_s", "s"),
    ("fieldcore.find_irreducible.self_s", "s"),
    ("fieldcore.mul.calls", "count"),
    ("fieldcore.mul.elems", "count"),
    ("fieldcore.mul.self_s", "s"),
    ("fieldcore.add.calls", "count"),
    ("fieldcore.add.elems", "count"),
    ("fieldcore.add.self_s", "s"),
    ("linalg.rref.calls", "count"),
    ("linalg.rref.cells", "count"),
    ("linalg.rref.self_s", "s"),
    ("linalg.matmul.calls", "count"),
    ("linalg.matmul.self_s", "s"),
    ("linalg.right_kernel.calls", "count"),
    ("linalg.right_kernel.self_s", "s"),
    ("linalg.intersect_rowspaces.calls", "count"),
    ("linalg.intersect_rowspaces.self_s", "s"),
    ("subspace.enumerate_rref_matrices.items", "count"),
    ("subspace.enumerate_rref_matrices.self_s", "s"),
    ("subspace.enumerate_fqm_subspaces.items", "count"),
    ("subspace.enumerate_fqm_subspaces.self_s", "s"),
    ("subspace.meet_join.calls", "count"),
    ("subspace.meet_join.self_s", "s"),
    ("subspace.FqmSubspace.expand_fq.calls", "count"),
    ("subspace.FqmSubspace.expand_fq.self_s", "s"),
    ("subspace.canonical_projective_reps.rows", "count"),
    ("subspace.canonical_projective_reps.self_s", "s"),
    ("subspace.linear_set.calls", "count"),
    ("subspace.linear_set.self_s", "s"),
    ("design.construct.self_s", "s"),
    ("design.hyperplane_profile_sums.calls", "count"),
    ("design.hyperplane_profile_sums.hyperplanes", "count"),
    ("design.hyperplane_profile_sums.self_s", "s"),
    ("design.is_cutting.calls", "count"),
    ("design.is_cutting.hyperplanes", "count"),
    ("design.is_cutting.self_s", "s"),
    ("hamming.hyperplane_point_counts.calls", "count"),
    ("hamming.hyperplane_point_counts.hyperplanes", "count"),
    ("hamming.hyperplane_point_counts.self_s", "s"),
    ("sweep.hyperplane_visits", "count"),
    ("sweep.useful_ratio", "ratio"),
    ("design.design_profile.calls", "count"),
    ("design.design_profile.self_s", "s"),
    ("design.classify.self_s", "s"),
    ("hamming.ext_system.self_s", "s"),
    ("hamming.weight_enumerator.self_s", "s"),
    ("hamming.srg_from_two_intersection.self_s", "s"),
    ("sumrank.min_distance.calls", "count"),
    ("sumrank.min_distance.self_s", "s"),
    ("sumrank.is_minimal_code.self_s", "s"),
    ("skewpoly.kernel_dim.calls", "count"),
    ("skewpoly.kernel_dim.self_s", "s"),
    ("skewpoly.lambda_value.calls", "count"),
    ("skewpoly.lambda_value.self_s", "s"),
    ("skewpoly.twist.self_s", "s"),
    ("expander.expansion_check.subspaces", "count"),
    ("expander.expansion_check.self_s", "s"),
    ("strongbridge.verify_strong.subspaces", "count"),
    ("strongbridge.verify_strong.self_s", "s"),
    ("cli.main.calls", "count"),
    ("cli.main.self_s", "s"),
    ("formats.design_from_json.self_s", "s"),
    ("trace.overhead_s", "s"),
]


class Tracer:
    """Span recorder; install() patches the library, uninstall() restores it."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.work = array("q")
        self._work_names: dict[int, str] = {}
        self._stack = [-1]
        self.op_id = 0
        self.tower_hits = 0
        self._towers: dict[int, object] = {}
        self._patches: list[tuple[object, str, object]] = []

    # -- span recording ----------------------------------------------------------

    def _nid(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1])
        self.op.append(self.op_id)
        self.end.append(0.0)
        self.work.append(0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self._stack.pop()

    # -- wrappers ----------------------------------------------------------------

    def _wrap_call(self, name: str, fn, work_name, work_fn):
        nid = self._nid(name)
        if work_name is not None:
            self._work_names[nid] = work_name
        is_tower = name == "gf.make_tower"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if work_fn is not None:
                self.work[idx] = work_fn(args, kwargs, result)
            if is_tower:
                self._note_tower(result)
            return result

        return wrapper

    def _wrap_gen(self, name: str, fn):
        nid = self._nid(name)
        self._work_names[nid] = "items"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            inner = fn(*args, **kwargs)

            def timed():
                while True:
                    idx = self._open(nid)
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        self._close(idx)
                    self.work[idx] = 1
                    yield item

            return timed()

        return wrapper

    def _note_tower(self, tower) -> None:
        if id(tower) in self._towers:
            self.tower_hits += 1
        else:
            self._towers[id(tower)] = tower

    # -- install / uninstall -----------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        modules = [mod for key, mod in sorted(sys.modules.items())
                   if mod is not None and (key == "subdesigns" or key.startswith("subdesigns."))]
        for name, owner, attr, kind, work_name, work_fn in TARGETS:
            orig = owner.__dict__[attr]
            if kind == "property":
                self._set(owner, attr, property(self._wrap_call(name, orig.fget, None, None)))
            elif kind == "method":
                self._set(owner, attr, self._wrap_call(name, orig, work_name, work_fn))
            else:
                wrapped = self._wrap_gen(name, orig) if kind == "gen" else self._wrap_call(name, orig, work_name, work_fn)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is orig:
                            self._set(mod, key, wrapped)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)

    # -- reduction and output ----------------------------------------------------

    def _arrays(self) -> dict[str, np.ndarray]:
        return {key: np.array(getattr(self, key)) for key in ("name_id", "parent", "op", "start", "end", "work")}

    def layer_metrics(self, useful_hyperplanes: int, overhead_s: float) -> dict[str, float]:
        """Reduce the spans to the LAYER_METRICS values.

        Every metric covers set-up and the traced pass, except ``sweep.*``,
        which covers the traced pass only (operation ids from 1 on), as
        ``useful_hyperplanes`` counts the hyperplanes of one pass.
        """
        a = self._arrays()
        n = len(self.names)
        dur = a["end"] - a["start"]
        child = np.zeros_like(dur)
        has_parent = a["parent"] >= 0
        np.add.at(child, a["parent"][has_parent], dur[has_parent])
        self_time = np.bincount(a["name_id"], weights=dur - child, minlength=n)
        calls = np.bincount(a["name_id"], minlength=n)
        work = np.bincount(a["name_id"], weights=a["work"], minlength=n)
        in_pass = a["op"] >= 1
        pass_work = np.bincount(a["name_id"][in_pass], weights=a["work"][in_pass], minlength=n)
        out: dict[str, float] = {}
        for name, nid in self._name_ids.items():
            out[f"{name}.calls"] = int(calls[nid])
            out[f"{name}.self_s"] = float(self_time[nid])
            if nid in self._work_names:
                out[f"{name}.{self._work_names[nid]}"] = int(work[nid])
        tower_calls = out.get("gf.make_tower.calls", 0)
        out["gf.tower_cache.hit_ratio"] = self.tower_hits / tower_calls if tower_calls else 0.0
        visits = int(sum(pass_work[self._name_ids[name]] for name in SWEEPS))
        out["sweep.hyperplane_visits"] = visits
        out["sweep.useful_ratio"] = useful_hyperplanes / visits if visits else 0.0
        out["trace.overhead_s"] = overhead_s
        return {name: out[name] for name, _ in LAYER_METRICS}

    def dump(self, path, meta: dict) -> None:
        """Write every span, the span names and the run metadata to an .npz file."""
        np.savez(path, names=np.array(self.names), meta=np.array(json.dumps(meta)), **self._arrays())
