"""Spans around the calls `nqac run` makes into each layer, recorded from outside.

``Tracer.install`` replaces each public function named in ``WRAPPED`` by a
wrapper that records a span (name, layer, start, end, parent) and, for some
roles, the amount of work the call was given. Nothing under ``src/`` is
changed: the functions are wrapped at the module attribute through which the
pipeline reaches them, so a name that no longer exists is reported as not
seen and its metrics read 0.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import time
from dataclasses import dataclass, field

# (module, attribute, layer, role); a role names the work counted for the call
WRAPPED = (
    ("nqac.cli", "run_experiment", "cli", None),
    ("nqac.cli", "load_problem", "ising", None),
    ("nqac.cli", "brute_force_ground", "ising", "ground"),
    ("nqac.sqa", "apply_gauge", "ising", None),
    ("nqac.cli", "encode_for_scale", "nesting", "encode"),
    ("nqac.pt", "encode_for_scale", "nesting", "encode"),
    ("nqac.sqa", "permute_nested", "nesting", None),
    ("nqac.analysis", "permute_nested", "nesting", None),
    ("nqac.analysis", "decode_batch", "nesting", "decode"),
    ("nqac.pt", "decode_batch", "nesting", "decode"),
    ("nqac.cli", "load_graph", "chimera", None),
    ("nqac.cli", "choi_embed", "chimera", "embed"),
    ("nqac.cli", "heuristic_embed", "chimera", "embed"),
    ("nqac.chimera", "apply_embedding", "chimera", "compile"),
    ("nqac.sqa", "apply_embedding", "chimera", "compile"),
    ("nqac.cli", "run_protocol_cycle", "sqa", "anneal"),
    ("nqac.cli", "thermal_boost_scan", "pt", "pt"),
    ("nqac.cli", "save_sampleset", "sampleset", "write"),
    ("nqac.cli", "load_sampleset", "sampleset", "read"),
    ("nqac.analysis", "estimate_success", "analysis", None),
    ("nqac.analysis", "optimize_gamma", "analysis", None),
    ("nqac.analysis", "compute_boost", "analysis", None),
    ("nqac.analysis", "fit_eta", "analysis", None),
)

#: spin-slice updates of the README's headline config (K4, C in {1,2,3},
#: 6 alphas x 11 gammas, 20 cycles x 1000 anneals, 10^4 sweeps, 64 slices)
README_UPDATES = sum(4 * C for C in (1, 2, 3)) * 64 * 10_000 * 1000 * 20 * 6 * 11


@dataclass
class Span:
    name: str
    layer: str
    role: str | None
    start: float
    parent: int | None
    end: float = 0.0
    work: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _chain_qubits(emb) -> int:
    return sum(len(q) for q in emb.chains.values())


def _work(role: str, args: dict, result) -> dict:
    """Work a call was given, read from its arguments and result."""
    if role == "decode":
        return {"records": len(args["configs"])}
    if role == "compile":
        return {"compiled": result.problem.n, "chain": _chain_qubits(result.embedding)}
    if role == "anneal":
        emb, p = args["emb"], args["params"]
        spins = args["np_prob"].n_nested if emb is None else _chain_qubits(emb)
        return {"updates": args["runs"] * p.trotter_slices * p.sweeps * spins}
    if role == "pt":
        p = args["params"]
        # run length rule of thermal_boost_scan: at least n_samples records after burn-in
        sweeps = max(p.sweeps, 2 * args["n_samples"] * p.swap_interval)
        spins = args["C"] * args["base"].n
        return {"updates": len(args["alphas"]) * len(p.betas) * spins * sweeps}
    if role == "write":
        return {"bytes": os.path.getsize(args["path"]), "records": args["ss"].n_records}
    if role == "read":
        return {"bytes": os.path.getsize(args["path"]), "records": result.n_records}
    return {}


class Tracer:
    """Records spans in memory; ``metrics`` turns them into per-layer numbers."""

    def __init__(self):
        self.spans: list[Span] = []
        self.not_seen: list[str] = []
        self._open: list[int] = []

    def install(self) -> None:
        for module_name, attr, layer, role in WRAPPED:
            try:
                module = importlib.import_module(module_name)
            except ModuleNotFoundError:
                module = None
            fn = getattr(module, attr, None)
            if fn is None:
                self.not_seen.append(f"{module_name}.{attr}")
                continue
            setattr(module, attr, self._wrap(fn, f"{module_name}.{attr}", layer, role))

    def _wrap(self, fn, name: str, layer: str, role: str | None):
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = Span(name, layer, role, time.perf_counter(),
                        self._open[-1] if self._open else None)
            self.spans.append(span)
            self._open.append(len(self.spans) - 1)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._open.pop()
            if role is not None:
                try:
                    bound = sig.bind(*args, **kwargs)
                    bound.apply_defaults()
                    span.work = _work(role, bound.arguments, result)
                except (KeyError, AttributeError, TypeError) as exc:
                    self.not_seen.append(f"{name} work ({type(exc).__name__}: {exc})")
            return result

        return wrapper

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics of everything recorded so far (units in BENCHMARK.json)."""
        self_s: dict[str, float] = {}
        child_s = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent is not None:
                child_s[s.parent] += s.duration
        for s, c in zip(self.spans, child_s):
            self_s[s.layer] = self_s.get(s.layer, 0.0) + s.duration - c

        def total(role, key=None):
            spans = [s for s in self.spans if s.role == role]
            if key is None:
                return sum(s.duration for s in spans)
            return sum(s.work.get(key, 0) for s in spans)

        def calls(role):
            return sum(1 for s in self.spans if s.role == role)

        def ratio(a, b):
            return a / b if b else 0.0

        sqa_self, sqa_updates = self_s.get("sqa", 0.0), total("anneal", "updates")
        pt_self, pt_updates = self_s.get("pt", 0.0), total("pt", "updates")
        n_compile = calls("compile")
        compiled, chain = total("compile", "compiled"), total("compile", "chain")
        w_s, w_b = total("write"), total("write", "bytes")
        r_s, r_b = total("read"), total("read", "bytes")
        ns_per_update = ratio(sqa_self, sqa_updates) * 1e9
        return {
            "sqa.self_s": sqa_self,
            "sqa.calls": calls("anneal"),
            "sqa.updates": sqa_updates,
            "sqa.ns_per_update": ns_per_update,
            "sqa.readme_cpu_h": ns_per_update * 1e-9 * README_UPDATES / 3600,
            "pt.self_s": pt_self,
            "pt.calls": calls("pt"),
            "pt.spin_updates": pt_updates,
            "pt.ns_per_spin_update": ratio(pt_self, pt_updates) * 1e9,
            "chimera.compiled_qubits": ratio(compiled, n_compile),
            "chimera.chain_qubits": ratio(chain, n_compile),
            "chimera.used_fraction": ratio(chain, compiled),
            "chimera.compile_calls": n_compile,
            "chimera.compile_ms": ratio(total("compile"), n_compile) * 1e3,
            "chimera.embed_s": total("embed"),
            "nesting.encode_calls": calls("encode"),
            "nesting.encode_s": total("encode"),
            "nesting.decode_us_per_record": ratio(total("decode"), total("decode", "records")) * 1e6,
            "sampleset.write_s": w_s,
            "sampleset.read_s": r_s,
            "sampleset.write_mb_per_s": ratio(w_b / 1e6, w_s),
            "sampleset.read_mb_per_s": ratio(r_b / 1e6, r_s),
            "sampleset.bytes_per_record": ratio(w_b, total("write", "records")),
            "analysis.self_s": self_s.get("analysis", 0.0),
            "ising.ground_s": total("ground"),
            "cli.self_s": self_s.get("cli", 0.0),
        }
