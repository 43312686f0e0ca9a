"""CBP-1 and CBP-2 synthetic suite specs.

The paper evaluates on the 20 CBP-1 traces (FP-1..5, INT-1..5, MM-1..5,
SERV-1..5) and the 20 CBP-2 traces (SPEC JVM98 / SPEC CPU names).  The
original trace files are no longer distributed, so each name maps here to a
:class:`repro.traces.workload.WorkloadSpec` whose behaviour mix matches the
family's published character (see DESIGN.md §2):

* **FP**: loop-dominated floating point, few static branches, strongly
  biased — very low misprediction rates;
* **INT**: mixed integer codes with real history correlation;
* **MM**: multimedia with data-dependent (noisy) branches;
* **SERV**: server codes with very large static branch working sets that
  put capacity/aliasing pressure on small predictors;
* CBP-2 names are mapped individually (gzip/twolf noisy, gcc/javac large
  working set, mpegaudio/eon highly predictable, ...).

Per-name seeds make every trace deterministic and distinct.  The names
resolve through the trace-source registry
(:class:`repro.traces.sources.base.SuiteTraceSource`), like every other
trace name; :func:`cbp1_trace` and friends check suite membership and
call that one lookup.
"""

from __future__ import annotations

import zlib

from repro.traces.names import CBP1_TRACE_NAMES, CBP2_TRACE_NAMES, FIGURE4_TRACE_NAMES
from repro.traces.sources.base import default_trace_length, resolve_trace
from repro.traces.types import Trace
from repro.traces.workload import KernelMix, WorkloadSpec

__all__ = [
    "CBP1_TRACE_NAMES",
    "CBP2_TRACE_NAMES",
    "FIGURE4_TRACE_NAMES",
    "trace_spec",
    "cbp1_trace",
    "cbp2_trace",
    "cbp1_suite",
    "cbp2_suite",
    "default_trace_length",
]

# ---------------------------------------------------------------------------
# family profiles
# ---------------------------------------------------------------------------

def _fp_profile(index: int) -> dict:
    """Loop-heavy, strongly biased floating-point codes.

    Loop kernels execute their whole burst per visit, so a small static
    loop fraction dominates dynamic execution — like FP inner loops.
    """
    return dict(
        n_static=220 + 40 * index,
        n_routines=24 + 4 * index,
        routine_len=(5, 14),
        routine_zipf_s=1.1,
        routine_repeat=(4, 16),
        mix=KernelMix(
            biased_strong=0.68,
            biased_noisy=0.008 + 0.004 * index,
            loop=0.10,
            pattern=0.04,
            parity=0.06,
            history_fn=0.02,
            local_pattern=0.02,
            nested_loop=0.05,
        ),
        strong_bias=(0.996, 0.9998),
        noisy_bias=(0.75, 0.90),
        loop_trips=(4, 48),
        parity_depth=(3, 8),
        history_fn_depth=(4, 8),
        insts_per_branch=(8, 18),
        correlated_noise=0.004,
    )


def _int_profile(index: int) -> dict:
    """Mixed integer codes with genuine history correlation."""
    return dict(
        n_static=460 + 70 * index,
        n_routines=55 + 9 * index,
        routine_len=(4, 10),
        routine_zipf_s=0.9,
        routine_repeat=(4, 14),
        mix=KernelMix(
            biased_strong=0.70,
            biased_noisy=0.010 + 0.003 * index,
            loop=0.05,
            pattern=0.020,
            parity=0.065,
            history_fn=0.050,
            local_pattern=0.015,
            nested_loop=0.012,
        ),
        strong_bias=(0.994, 0.9998),
        noisy_bias=(0.76, 0.92),
        loop_trips=(2, 16),
        pattern_len=(2, 5),
        parity_depth=(3, 10),
        history_fn_depth=(4, 11),
        insts_per_branch=(3, 8),
        correlated_noise=0.010,
    )


def _mm_profile(index: int) -> dict:
    """Multimedia: data-dependent branches, some intrinsically noisy."""
    return dict(
        n_static=420 + 60 * index,
        n_routines=45 + 7 * index,
        routine_len=(4, 10),
        routine_zipf_s=0.8,
        routine_repeat=(3, 12),
        mix=KernelMix(
            biased_strong=0.62,
            biased_noisy=0.024 + 0.006 * index,
            loop=0.06,
            pattern=0.022,
            parity=0.070,
            history_fn=0.060,
            local_pattern=0.020,
            nested_loop=0.016,
        ),
        strong_bias=(0.993, 0.9997),
        noisy_bias=(0.66, 0.86),
        loop_trips=(2, 24),
        pattern_len=(2, 6),
        parity_depth=(3, 9),
        history_fn_depth=(4, 12),
        insts_per_branch=(4, 10),
        correlated_noise=0.025,
    )


def _serv_profile(index: int) -> dict:
    """Server codes: huge static working set, flat routine popularity.

    The working set itself creates the difficulty (bimodal aliasing and
    tagged-table capacity pressure on the small predictor), so the branch
    behaviours stay mostly easy.
    """
    return dict(
        n_static=1050 + 190 * index,
        n_routines=150 + 28 * index,
        routine_len=(3, 9),
        routine_zipf_s=0.45,
        routine_repeat=(3, 10),
        mix=KernelMix(
            biased_strong=0.80,
            biased_noisy=0.008,
            loop=0.030,
            pattern=0.022,
            parity=0.048,
            history_fn=0.026,
            local_pattern=0.016,
            nested_loop=0.012,
        ),
        strong_bias=(0.995, 0.9998),
        noisy_bias=(0.76, 0.92),
        loop_trips=(2, 14),
        pattern_len=(2, 5),
        parity_depth=(3, 7),
        history_fn_depth=(4, 7),
        insts_per_branch=(4, 10),
        correlated_noise=0.012,
    )


# CBP-2 per-benchmark profiles, expressed as (builder, difficulty knobs).
# predictable  -> FP-like;  noisy -> MM-like with more noise;
# big_ws -> SERV-like;      mixed -> INT-like.
_CBP2_PROFILES: dict[str, tuple[str, dict]] = {
    "164.gzip": ("noisy", dict(noisy_boost=0.07, noise=0.05)),
    "175.vpr": ("noisy", dict(noisy_boost=0.05, noise=0.05)),
    "176.gcc": ("big_ws", dict(n_static=2600, n_routines=340)),
    "181.mcf": ("mixed", dict(noisy_boost=0.03)),
    "186.crafty": ("mixed", dict(n_static=900)),
    "197.parser": ("mixed", dict(noisy_boost=0.04, n_static=800)),
    "201.compress": ("noisy", dict(noisy_boost=0.03, noise=0.04)),
    "202.jess": ("big_ws", dict(n_static=1700, n_routines=230)),
    "205.raytrace": ("predictable", dict()),
    "209.db": ("big_ws", dict(n_static=1500, n_routines=200, noisy_boost=0.02)),
    "213.javac": ("big_ws", dict(n_static=2100, n_routines=280)),
    "222.mpegaudio": ("predictable", dict(loop_boost=0.08)),
    "227.mtrt": ("predictable", dict()),
    "228.jack": ("mixed", dict(n_static=1000)),
    "252.eon": ("predictable", dict()),
    "253.perlbmk": ("big_ws", dict(n_static=1800, n_routines=240)),
    "254.gap": ("mixed", dict()),
    "255.vortex": ("big_ws", dict(n_static=1900, n_routines=250)),
    "256.bzip2": ("noisy", dict(noisy_boost=0.05, noise=0.05)),
    "300.twolf": ("noisy", dict(noisy_boost=0.10, noise=0.06)),
}


def _cbp2_profile(name: str, index: int) -> dict:
    kind, knobs = _CBP2_PROFILES[name]
    if kind == "predictable":
        profile = _fp_profile(index % 5)
        profile["insts_per_branch"] = (5, 12)
        if "loop_boost" in knobs:
            mix = profile["mix"]
            profile["mix"] = KernelMix(
                biased_strong=mix.biased_strong,
                biased_noisy=mix.biased_noisy,
                loop=mix.loop + knobs["loop_boost"],
                pattern=mix.pattern,
                parity=mix.parity,
                history_fn=mix.history_fn,
                local_pattern=mix.local_pattern,
                nested_loop=mix.nested_loop,
            )
        return profile
    if kind == "noisy":
        profile = _mm_profile(index % 5)
        boost = knobs.get("noisy_boost", 0.0)
        mix = profile["mix"]
        profile["mix"] = KernelMix(
            biased_strong=max(0.05, mix.biased_strong - boost),
            biased_noisy=mix.biased_noisy + boost,
            loop=mix.loop,
            pattern=mix.pattern,
            parity=mix.parity,
            history_fn=mix.history_fn,
            local_pattern=mix.local_pattern,
            nested_loop=mix.nested_loop,
        )
        profile["correlated_noise"] = knobs.get("noise", profile["correlated_noise"])
        profile["insts_per_branch"] = (3, 8)
        return profile
    if kind == "big_ws":
        profile = _serv_profile(index % 5)
        profile["n_static"] = knobs.get("n_static", profile["n_static"])
        profile["n_routines"] = knobs.get("n_routines", profile["n_routines"])
        if "noisy_boost" in knobs:
            mix = profile["mix"]
            boost = knobs["noisy_boost"]
            profile["mix"] = KernelMix(
                biased_strong=max(0.05, mix.biased_strong - boost),
                biased_noisy=mix.biased_noisy + boost,
                loop=mix.loop,
                pattern=mix.pattern,
                parity=mix.parity,
                history_fn=mix.history_fn,
                local_pattern=mix.local_pattern,
                nested_loop=mix.nested_loop,
            )
        profile["insts_per_branch"] = (4, 9)
        return profile
    if kind == "mixed":
        profile = _int_profile(index % 5)
        profile["n_static"] = knobs.get("n_static", profile["n_static"])
        if "noisy_boost" in knobs:
            mix = profile["mix"]
            boost = knobs["noisy_boost"]
            profile["mix"] = KernelMix(
                biased_strong=max(0.05, mix.biased_strong - boost),
                biased_noisy=mix.biased_noisy + boost,
                loop=mix.loop,
                pattern=mix.pattern,
                parity=mix.parity,
                history_fn=mix.history_fn,
                local_pattern=mix.local_pattern,
                nested_loop=mix.nested_loop,
            )
        return profile
    raise ValueError(f"unknown CBP-2 profile kind {kind!r}")


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

def trace_spec(name: str) -> WorkloadSpec:
    """Return the :class:`WorkloadSpec` for any CBP-1 or CBP-2 trace name."""
    if name in CBP1_TRACE_NAMES:
        family, _, index_text = name.partition("-")
        index = int(index_text) - 1
        builder = {
            "FP": _fp_profile,
            "INT": _int_profile,
            "MM": _mm_profile,
            "SERV": _serv_profile,
        }[family]
        profile = builder(index)
        seed = zlib.crc32(f"cbp1/{name}".encode())
        return WorkloadSpec(name=name, seed=seed, **profile)
    if name in CBP2_TRACE_NAMES:
        index = CBP2_TRACE_NAMES.index(name)
        profile = _cbp2_profile(name, index)
        seed = zlib.crc32(f"cbp2/{name}".encode())
        return WorkloadSpec(name=name, seed=seed, **profile)
    raise KeyError(f"unknown trace name {name!r}")


def cbp1_trace(name: str, n_branches: int | None = None) -> Trace:
    """Generate (and cache) a named CBP-1 trace; ``None`` is the
    default length."""
    if name not in CBP1_TRACE_NAMES:
        raise KeyError(f"{name!r} is not a CBP-1 trace name")
    return resolve_trace(name, n_branches)


def cbp2_trace(name: str, n_branches: int | None = None) -> Trace:
    """Generate (and cache) a named CBP-2 trace; ``None`` is the
    default length."""
    if name not in CBP2_TRACE_NAMES:
        raise KeyError(f"{name!r} is not a CBP-2 trace name")
    return resolve_trace(name, n_branches)


def cbp1_suite(n_branches: int | None = None, names: tuple[str, ...] = CBP1_TRACE_NAMES) -> list[Trace]:
    """Generate the (sub)suite of CBP-1 traces, in the paper's order."""
    return [cbp1_trace(name, n_branches) for name in names]


def cbp2_suite(n_branches: int | None = None, names: tuple[str, ...] = CBP2_TRACE_NAMES) -> list[Trace]:
    """Generate the (sub)suite of CBP-2 traces, in the paper's order."""
    return [cbp2_trace(name, n_branches) for name in names]
