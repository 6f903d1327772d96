"""Runtime tracing of gradedosp from outside the package.

`Tracer.install()` rebinds public functions and methods of the program to
timing wrappers; `uninstall()` puts the originals back. Nothing under
`src/` is edited. Three kinds of wrapper are used:

* coarse calls (the CLI command, `kernel_basis`, each `verify_*`, each
  generator builder, `is_member`, `rank_of`) get a span with a parent span;
* hot calls (the graded bracket, `@`, the commutators and the other
  GradedMatrix operations, `u_matrix`, echelon inserts) get a call count
  and cumulative time, aggregated, with no span;
* Scalar `*`, `+`/`-`/negation and `inv`, and `grading.dot`, are counted
  only. Timing each of them would cost more than the operation, so their
  time is computed instead: calls times the microseconds per operation
  measured by replaying a fixed-size sample of their real operands.

Every timed wrapper keeps a frame on one call stack. A frame's self time
is its duration minus that of its timed children; a module's self time is
the sum over its frames, less the computed time of the Scalar operations
those frames issued directly. The stack is single-threaded: traced passes
run with `--parallelism 1`.
"""

from __future__ import annotations

import json
import math
import operator
import random
import statistics
import sys
from time import perf_counter

from gradedosp import algebras, cli, gmatrix, grading, parastat, scalars
from gradedosp.report import CheckReport

SAMPLE_SIZE = 2048
REPLAY_REPEATS = 5
FAMILIES = [f.value for f in parastat.RelationFamily]

# Frame layout: [module, child seconds, mul, add, inv, span id]
_MUL, _ADD, _INV = 2, 3, 4

# (owner, attribute, metric name, module, keeps a span)
_TIMED = [
    (cli, "main", "cli.main", "cli", True),
    (cli, "run", "cli.run", "cli", True),
    (algebras, "kernel_basis", "kernel_basis", "algebras", True),
    (algebras, "is_member", "membership", "algebras", True),
    (algebras, "rank_of", "rank_of", "algebras", True),
    (algebras, "verify_closure", "closure", "algebras", True),
    (algebras, "verify_symmetry", "symmetry", "algebras", True),
    (algebras, "verify_jacobi", "jacobi", "algebras", True),
    (algebras, "verify_block_conditions", "block_conditions", "algebras", True),
    (parastat, "parafermion_ops", "generators", "parastat", True),
    (parastat, "paraboson_ops", "generators", "parastat", True),
    (parastat, "palev_ops", "generators", "parastat", True),
    (parastat, "verify_relations", "relations", "parastat", True),
    (parastat, "graded_bracket_consistency", "consistency", "parastat", True),
    (algebras, "u_matrix", "u_matrix", "algebras", False),
    (algebras.SpanReducer, "insert", "echelon_insert", "algebras", False),
    (gmatrix, "graded_bracket", "bracket", "gmatrix", False),
    (gmatrix, "commutator", "commutator", "gmatrix", False),
    (gmatrix, "anticommutator", "anticommutator", "gmatrix", False),
    (gmatrix.GradedMatrix, "__matmul__", "matmul", "gmatrix", False),
    (gmatrix.GradedMatrix, "__add__", "matrix_add", "gmatrix", False),
    (gmatrix.GradedMatrix, "__sub__", "matrix_sub", "gmatrix", False),
    (gmatrix.GradedMatrix, "__neg__", "matrix_neg", "gmatrix", False),
    (gmatrix.GradedMatrix, "__eq__", "matrix_eq", "gmatrix", False),
    (gmatrix.GradedMatrix, "scale", "matrix_scale", "gmatrix", False),
    (gmatrix.GradedMatrix, "graded_transpose", "transpose", "gmatrix", False),
]

# (Scalar method, frame slot, sampled as)
_SCALAR = [
    ("__mul__", _MUL, "mul"),
    ("__rmul__", _MUL, "mul"),
    ("__add__", _ADD, "add"),
    ("__radd__", _ADD, "add"),
    ("__sub__", _ADD, "add"),
    ("__neg__", _ADD, None),
    ("inv", _INV, None),
]


def _package_modules():
    return [m for name, m in sys.modules.items() if name == "gradedosp" or name.startswith("gradedosp.")]


class Reservoir:
    """Uniform fixed-size sample of a stream (Li's algorithm L), so the
    per-item cost is one counter comparison once the sample is full."""

    def __init__(self, size: int, rng: random.Random):
        self.size = size
        self.rng = rng
        self.items: list = []
        self.seen = 0
        self._w = 1.0
        self._next = size

    def _advance(self) -> None:
        self._w *= math.exp(math.log(self.rng.random()) / self.size)
        self._next += int(math.log(self.rng.random()) / math.log(1.0 - self._w)) + 1

    def offer(self, item) -> None:
        self.seen += 1
        if self.seen <= self.size:
            self.items.append(item)
            if self.seen == self.size:
                self._advance()
        elif self.seen == self._next:
            self.items[self.rng.randrange(self.size)] = item
            self._advance()


def _parts(x) -> tuple[int, int, int, int]:
    """(p, q, r, s) of x = p/q + (r/s)*sqrt2, through the public wire form."""
    if isinstance(x, int):
        return (x, 1, 0, 1)
    if hasattr(x, "numerator"):
        return (x.numerator, x.denominator, 0, 1)
    return tuple(x.to_json())


class Tracer:
    """One traced pass: install, run the pass, uninstall, then `metrics()`."""

    def __init__(self, seed: int):
        self.t0 = perf_counter()
        self.stack: list = [["bench", 0.0, 0, 0, 0, None]]
        self.spans: list[dict] = []
        self.calls: dict[str, int] = {}
        self.cum_s: dict[str, float] = {}
        self.self_s: dict[str, float] = {}
        self.scalar_ops: dict[str, list[int]] = {}
        self.instances: dict[str, int] = {}
        self.dot_calls = 0
        self.samples = {"mul": Reservoir(SAMPLE_SIZE, random.Random(seed)),
                        "add": Reservoir(SAMPLE_SIZE, random.Random(seed + 1))}
        self.reports: list[CheckReport] = []
        self.kernel_specs: set = set()
        self.kernel_repeats = 0
        self.matrix_keys: dict[int, tuple] = {}
        self.content_ids: dict[str, int] = {}
        self.bracket_pairs: set = set()
        self.bracket_repeats = 0
        self.bracket_nnz = 0
        self._saved: list = []

    # -- installing wrappers ---------------------------------------------

    def _rebind(self, owner, attr, wrapper) -> None:
        orig = getattr(owner, attr)
        if isinstance(owner, type):
            self._saved.append((owner, attr, orig))
            setattr(owner, attr, wrapper)
            return
        # A function is bound by name in every module that imported it.
        for module in _package_modules():
            for name, value in list(vars(module).items()):
                if value is orig:
                    self._saved.append((module, name, orig))
                    setattr(module, name, wrapper)

    def install(self) -> None:
        for owner, attr, name, module, span in _TIMED:
            self._rebind(owner, attr, self._timed(getattr(owner, attr), name, module, span))
        for attr, slot, sampled in _SCALAR:
            orig = getattr(scalars.Scalar, attr)
            self._rebind(scalars.Scalar, attr, self._counted(orig, slot, sampled))
        self._rebind(grading, "dot", self._counted_dot(grading.dot))
        self._rebind(CheckReport, "__init__", self._registering(CheckReport.__init__))

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._saved):
            setattr(owner, attr, orig)
        self._saved.clear()
        self.matrix_keys.clear()

    # -- wrappers ---------------------------------------------------------

    def _timed(self, orig, name, module, span):
        stack = self.stack
        observe = getattr(self, "_observe_" + name, None)
        calls, cum_s, self_s, scalar_ops = self.calls, self.cum_s, self.self_s, self.scalar_ops
        calls.setdefault(name, 0)
        cum_s.setdefault(name, 0.0)
        self_s.setdefault(module, 0.0)
        scalar_ops.setdefault(module, [0, 0, 0])
        spans = self.spans

        def wrapper(*args, **kwargs):
            parent = stack[-1]
            span_id = len(spans) if span else parent[5]
            if span:
                spans.append(None)  # reserve the id; filled in on exit
            frame = [module, 0.0, 0, 0, 0, span_id]
            stack.append(frame)
            start = perf_counter()
            try:
                result = orig(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
            dt = end - start
            calls[name] += 1
            cum_s[name] += dt
            self_s[module] += dt - frame[1]
            ops = scalar_ops[module]
            ops[0] += frame[_MUL]
            ops[1] += frame[_ADD]
            ops[2] += frame[_INV]
            if span:
                spans[span_id] = {
                    "id": span_id, "parent": parent[5], "name": name, "module": module,
                    "start": start - self.t0, "end": end - self.t0,
                }
            if observe is not None:
                observe(args, result, dt)
                # Keep the observer's own cost out of the caller's self time.
                parent[1] += perf_counter() - start
            else:
                parent[1] += dt
            return result

        return wrapper

    def _counted(self, orig, slot, sampled):
        stack = self.stack
        if sampled is None:
            def wrapper(*args):
                stack[-1][slot] += 1
                return orig(*args)
            return wrapper
        offer = self.samples[sampled].offer

        def wrapper(a, b):
            stack[-1][slot] += 1
            offer((a, b))
            return orig(a, b)

        return wrapper

    def _counted_dot(self, orig):
        def wrapper(a, b):
            self.dot_calls += 1
            return orig(a, b)
        return wrapper

    def _registering(self, orig):
        reports = self.reports

        def wrapper(report, *args, **kwargs):
            orig(report, *args, **kwargs)
            reports.append(report)

        return wrapper

    # -- observers: extra per-call facts, outside the call's own time -----

    def _content_id(self, mat) -> int:
        hit = self.matrix_keys.get(id(mat))
        if hit is not None and hit[0] is mat:
            return hit[1]
        text = json.dumps(mat.to_json(), sort_keys=True)
        cid = self.content_ids.setdefault(text, len(self.content_ids))
        # Holding `mat` keeps its id from being reused during the pass.
        self.matrix_keys[id(mat)] = (mat, cid)
        return cid

    def _observe_bracket(self, args, result, dt) -> None:
        pair = (self._content_id(args[0]), self._content_id(args[1]))
        if pair in self.bracket_pairs:
            self.bracket_repeats += 1
        else:
            self.bracket_pairs.add(pair)
        self.bracket_nnz += sum(1 for _ in result.items())

    def _observe_kernel_basis(self, args, result, dt) -> None:
        spec = args[0]
        if spec in self.kernel_specs:
            self.kernel_repeats += 1
        self.kernel_specs.add(spec)

    def _count_instances(self, key, result) -> None:
        self.instances[key] = self.instances.get(key, 0) + result.total

    def _observe_closure(self, args, result, dt) -> None:
        self._count_instances("closure", result)

    def _observe_symmetry(self, args, result, dt) -> None:
        self._count_instances("symmetry", result)

    def _observe_jacobi(self, args, result, dt) -> None:
        self._count_instances("jacobi", result)

    def _observe_relations(self, args, result, dt) -> None:
        key = "relations." + parastat.RelationFamily(args[0]).value
        self._count_instances("relations", result)
        self._count_instances(key, result)
        self.cum_s[key] = self.cum_s.get(key, 0.0) + dt

    # -- results ----------------------------------------------------------

    def sample_stats(self) -> dict:
        """Per-op replay time and operand properties of the sample."""
        pairs = [(_parts(a), _parts(b)) for a, b in self.samples["mul"].items + self.samples["add"].items]
        nonint = sum(1 for a, b in pairs if a[1] != 1 or a[3] != 1 or b[1] != 1 or b[3] != 1)
        irr = sum(1 for a, b in pairs if a[2] or b[2])
        n = max(1, len(pairs))
        return {
            "scalars.mul_us": _replay_us(self.samples["mul"].items, operator.mul),
            "scalars.add_us": _replay_us(self.samples["add"].items, operator.add),
            "scalars.nonint_share": nonint / n,
            "scalars.irr_share": irr / n,
            "scalars.max_bits": max((abs(v).bit_length() for pair in pairs for p in pair for v in p), default=0),
        }

    def metrics(self) -> dict:
        """Every per-layer metric of this pass (0 for layers not exercised)."""
        out = self.sample_stats()
        us = {"mul": out["scalars.mul_us"], "add": out["scalars.add_us"]}
        # inv is rare and has no sample; it is costed as one multiply.
        cost = [us["mul"] * 1e-6, us["add"] * 1e-6, us["mul"] * 1e-6]
        totals = [sum(ops[k] for ops in self.scalar_ops.values()) + self.stack[0][_MUL + k] for k in range(3)]

        def module_self(module: str) -> float:
            ops = self.scalar_ops.get(module, [0, 0, 0])
            return self.self_s.get(module, 0.0) - sum(c * n for c, n in zip(cost, ops))

        def rate(key: str) -> float:
            t = self.cum_s.get(key, 0.0)
            return self.instances.get(key, 0) / t if t else 0.0

        calls, cum = self.calls, self.cum_s
        bracket_calls = calls.get("bracket", 0)
        out.update({
            "scalars.mul_calls": totals[0],
            "scalars.add_calls": totals[1],
            "scalars.inv_calls": totals[2],
            "scalars.self_s": sum(c * n for c, n in zip(cost, totals)),
            "grading.dot_calls": self.dot_calls,
            "gmatrix.bracket_calls": bracket_calls,
            "gmatrix.bracket_s": cum.get("bracket", 0.0),
            "gmatrix.bracket_repeat_ratio": self.bracket_repeats / bracket_calls if bracket_calls else 0.0,
            "gmatrix.bracket_out_nnz_mean": self.bracket_nnz / bracket_calls if bracket_calls else 0.0,
            "gmatrix.matmul_calls": calls.get("matmul", 0),
            "gmatrix.matmul_s": cum.get("matmul", 0.0),
            "gmatrix.commutator_calls": calls.get("commutator", 0),
            "gmatrix.anticommutator_calls": calls.get("anticommutator", 0),
            "gmatrix.self_s": module_self("gmatrix"),
            "algebras.kernel_basis_s": cum.get("kernel_basis", 0.0),
            "algebras.kernel_basis_calls": calls.get("kernel_basis", 0),
            "algebras.kernel_basis_repeat_ratio": (
                self.kernel_repeats / calls["kernel_basis"] if calls.get("kernel_basis") else 0.0
            ),
            "algebras.membership_s": cum.get("membership", 0.0),
            "algebras.u_matrix_calls": calls.get("u_matrix", 0),
            "algebras.closure_s": cum.get("closure", 0.0),
            "algebras.closure_per_s": rate("closure"),
            "algebras.symmetry_s": cum.get("symmetry", 0.0),
            "algebras.symmetry_per_s": rate("symmetry"),
            "algebras.jacobi_s": cum.get("jacobi", 0.0),
            "algebras.jacobi_per_s": rate("jacobi"),
            "algebras.block_conditions_s": cum.get("block_conditions", 0.0),
            "algebras.rank_of_s": cum.get("rank_of", 0.0),
            "algebras.echelon_inserts": calls.get("echelon_insert", 0),
            "algebras.self_s": module_self("algebras"),
            "parastat.generators_s": cum.get("generators", 0.0),
            "parastat.relations_s": cum.get("relations", 0.0),
            "parastat.relations_per_s": rate("relations"),
            "parastat.consistency_s": cum.get("consistency", 0.0),
            "parastat.self_s": module_self("parastat"),
            "cli.run_s": cum.get("cli.run", 0.0),
            # cli.main outside cli.run: argument parsing, rendering, writing.
            "cli.render_s": cum.get("cli.main", 0.0) - cum.get("cli.run", 0.0),
            "report.records": sum(r.total for r in self.reports),
        })
        for family in FAMILIES:
            out[f"parastat.relations.{family}_per_s"] = rate("relations." + family)
        return out


def _replay_us(pairs: list, op) -> float:
    """Median over repeats of the mean time of `op` on the sampled pairs."""
    if not pairs:
        return 0.0
    times = []
    for _ in range(REPLAY_REPEATS):
        start = perf_counter()
        for a, b in pairs:
            op(a, b)
        times.append(perf_counter() - start)
    return statistics.median(times) / len(pairs) * 1e6
