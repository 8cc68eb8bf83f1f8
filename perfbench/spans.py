"""In-memory span recorder wrapped around the package's public calls.

Each wrapper replaces a name where its caller looks it up (a module
global such as ``obrealize.spectral.assemble_pencil``, or a class
attribute such as ``TransferHierarchy.residual``), so calls made inside
the package are recorded as well as the benchmark's own.  Spans are kept
in a list while the traced pass runs and written out when it ends; the
per-layer metrics are derived from them afterwards.
"""
from __future__ import annotations

import inspect
import json
from time import perf_counter

from obrealize import control, grid, profile, realize, reduction, scalar, spectral


_LYAPUNOV_SIGNATURE = inspect.signature(realize.lyapunov)


def _lyapunov_steps(args, kwargs, result):
    """Transient plus measured steps, from the call's arguments."""
    bound = _LYAPUNOV_SIGNATURE.bind(*args, **kwargs)
    bound.apply_defaults()
    a = bound.arguments
    return {"steps": int(a["transient"] / a["dt"]) + int(a["horizon"] / a["dt"])}


def _trajectory_steps(args, kwargs, result):
    return {"steps": result.steps, "rejected": result.rejected}


# (owner, attribute, span name, attrs from (args, kwargs, result))
TARGETS = [
    (scalar.TransferHierarchy, "leading_lambda", "scalar.leading_lambda", None),
    (scalar.TransferHierarchy, "residual", "scalar.residual", None),
    (spectral, "find_root_z", "scalar.find_root_z", None),
    (spectral, "spectrum_report", "spectral.spectrum_report", None),
    (spectral, "assemble_pencil", "spectral.assemble_pencil", None),
    (reduction, "assemble_pencil", "spectral.assemble_pencil", None),
    (reduction, "solve_modes", "spectral.solve_modes", None),
    (reduction, "solve_conjugate_modes", "spectral.solve_conjugate_modes", None),
    (reduction, "biorthogonalize", "spectral.biorthogonalize", None),
    (profile, "designed_profile", "profile.designed_profile", None),
    (spectral, "make_grid", "grid.make_grid", None),
    (control, "make_grid", "grid.make_grid", None),
    (grid, "make_grid", "grid.make_grid", None),
    (reduction, "asymptotic_basis", "reduction.asymptotic_basis", None),
    (reduction, "numeric_basis", "reduction.numeric_basis", None),
    (reduction, "compute_K", "reduction.compute_K", None),
    (control, "control_solve", "control.control_solve", None),
    (control, "moment_profile", "control.moment_profile", None),
    (realize, "realize_target", "realize.realize_target", None),
    (realize, "lyapunov", "realize.lyapunov", _lyapunov_steps),
    (realize, "integrate", "realize.integrate", _trajectory_steps),
    (realize, "manifold_residual", "realize.manifold_residual", None),
    (realize, "empirical_field_error", "realize.empirical_field_error", None),
    (realize, "rescale_into_ball", "realize.rescale_into_ball", None),
]


class Tracer:
    """Records one span per wrapped call: name, parent, start, end, attrs.

    The package runs single-threaded here (``threads=1``), so a plain stack
    gives each span its parent.  A call that raises is recorded with
    ``{"failed": 1}`` and the exception propagates unchanged.
    """

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = [-1]
        self._saved: list[tuple] = []

    def _wrap(self, fn, name, attrs_of):
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append([name, stack[-1], perf_counter(), 0.0, None])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                spans[idx][4] = {"failed": 1}
                raise
            finally:
                spans[idx][3] = perf_counter()
                stack.pop()
            if attrs_of is not None:
                spans[idx][4] = attrs_of(args, kwargs, result)
            return result

        return wrapper

    def __enter__(self):
        for owner, attr, name, attrs_of in TARGETS:
            fn = owner.__dict__[attr]
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(fn, name, attrs_of))
        return self

    def __exit__(self, *exc):
        for owner, attr, fn in reversed(self._saved):
            setattr(owner, attr, fn)
        self._saved.clear()
        return False

    def write(self, path) -> None:
        keys = ("name", "parent", "start", "end", "attrs")
        with open(path, "w") as fh:
            json.dump([dict(zip(keys, s)) for s in self.spans], fh)


def layer_metrics(spans: list[list], rounds: int) -> dict[str, float]:
    """Per-round per-layer metrics derived from the recorded spans.

    ``*_s`` is the summed span time, ``*_self_s`` the same minus the time
    covered by direct child spans; counts come from span numbers and the
    attrs recorded at the boundaries.  A layer the workload does not call
    reads 0.
    """
    total: dict[str, float] = {}
    child: dict[str, float] = {}
    calls: dict[str, int] = {}
    attr: dict[str, int] = {}
    for name, parent, start, end, attrs in spans:
        d = end - start
        total[name] = total.get(name, 0.0) + d
        calls[name] = calls.get(name, 0) + 1
        if parent >= 0:
            pname = spans[parent][0]
            child[pname] = child.get(pname, 0.0) + d
        for key, val in (attrs or {}).items():
            attr[f"{name}.{key}"] = attr.get(f"{name}.{key}", 0) + val

    def s(name):
        return total.get(name, 0.0) / rounds

    def self_s(name):
        return (total.get(name, 0.0) - child.get(name, 0.0)) / rounds

    def n(name):
        return calls.get(name, 0) / rounds

    def a(key):
        return attr.get(key, 0) / rounds

    def per(time_s, count):
        return 1e6 * time_s / count if count else 0.0

    res_calls = n("scalar.residual")
    lyap_steps = a("realize.lyapunov.steps")
    int_steps = a("realize.integrate.steps")
    return {
        "scalar.leading_lambda_s": s("scalar.leading_lambda"),
        "scalar.residual_calls": res_calls,
        "scalar.residual_us_per_call": per(s("scalar.residual"), res_calls),
        "scalar.residual_failed": a("scalar.residual.failed"),
        "scalar.find_root_z_s": s("scalar.find_root_z"),
        "spectral.assemble_pencil_s": s("spectral.assemble_pencil"),
        "spectral.assemble_pencil_calls": n("spectral.assemble_pencil"),
        "spectral.spectrum_report_self_s": self_s("spectral.spectrum_report"),
        "spectral.solve_modes_s": s("spectral.solve_modes"),
        "spectral.solve_conjugate_modes_s": s("spectral.solve_conjugate_modes"),
        "spectral.biorthogonalize_s": s("spectral.biorthogonalize"),
        "profile.designed_profile_s": s("profile.designed_profile"),
        "profile.designed_profile_calls": n("profile.designed_profile"),
        "grid.make_grid_s": s("grid.make_grid"),
        "reduction.asymptotic_basis_s": s("reduction.asymptotic_basis"),
        "reduction.numeric_basis_self_s": self_s("reduction.numeric_basis"),
        "reduction.compute_K_s": s("reduction.compute_K"),
        "control.control_solve_self_s": self_s("control.control_solve"),
        "control.moment_profile_s": s("control.moment_profile"),
        "control.moment_profile_calls": n("control.moment_profile"),
        "realize.lyapunov_s": s("realize.lyapunov"),
        "realize.lyapunov_steps": lyap_steps,
        "realize.lyapunov_us_per_step": per(s("realize.lyapunov"), lyap_steps),
        "realize.realize_target_self_s": self_s("realize.realize_target"),
        "realize.integrate_s": s("realize.integrate"),
        "realize.integrate_steps": int_steps,
        "realize.integrate_rejected": a("realize.integrate.rejected"),
        "realize.integrate_us_per_step": per(s("realize.integrate"), int_steps),
        "realize.diagnostics_s": (s("realize.manifold_residual")
                                  + s("realize.empirical_field_error")),
        "realize.rescale_into_ball_s": s("realize.rescale_into_ball"),
    }
