"""CSV serialization for solver and ODE traces.

The column order and header are a stable external contract:

    solver traces:  k,F,lyapunov,step_sq,residual_sq,descent_slack
    ODE traces:     t,xi_f,speed_sq,accel_ratio

Floats are written with 17 significant digits, which round-trips IEEE
double exactly.  Newlines are always "\\n" so repeated runs are
byte-identical regardless of platform.
"""

from __future__ import annotations

import numpy as np

from .errors import ContractViolation

TRACE_HEADER = "k,F,lyapunov,step_sq,residual_sq,descent_slack"
ODE_HEADER = "t,xi_f,speed_sq,accel_ratio"


def write_trace_csv(path, trace) -> None:
    """Write one solver trace; every value must be finite."""
    cols = [
        np.asarray(trace.ks),
        np.asarray(trace.F),
        np.asarray(trace.lyapunov),
        np.asarray(trace.step_sq),
        np.asarray(trace.residual_sq),
        np.asarray(trace.descent_slack),
    ]
    _write_rows(path, TRACE_HEADER, cols, allow_inf_cols=())


def write_mean_trace_csv(path, traces) -> dict:
    """Seed-averaged trace: elementwise mean of each column at matching k.

    Traces are truncated to the shortest common length; iteration grids
    must agree on that prefix.  Returns the written columns as
    {column_name: ndarray}, equal to what read_csv would parse back.
    """
    if len(traces) == 0:
        raise ContractViolation("need at least one trace to average")
    n = min(len(t.ks) for t in traces)
    ks = np.asarray(traces[0].ks[:n])
    for t in traces:
        if not np.array_equal(np.asarray(t.ks[:n]), ks):
            raise ContractViolation("traces disagree on recorded iteration grid")
    cols = {"k": ks}
    for name in ("F", "lyapunov", "step_sq", "residual_sq", "descent_slack"):
        stack = np.stack([np.asarray(getattr(t, name)[:n], dtype=float) for t in traces])
        cols[name] = stack.mean(axis=0)
    _write_rows(path, TRACE_HEADER, list(cols.values()), allow_inf_cols=())
    return cols


def write_ode_csv(path, ode_trace) -> None:
    """Write an ODE trace; accel_ratio may hold the documented +inf sentinel."""
    speed_sq = np.sum(np.asarray(ode_trace.vs) ** 2, axis=1)
    cols = [
        np.asarray(ode_trace.ts),
        np.asarray(ode_trace.xi_f),
        speed_sq,
        np.asarray(ode_trace.accel_ratio),
    ]
    _write_rows(path, ODE_HEADER, cols, allow_inf_cols=(3,))


def _write_rows(path, header: str, cols, allow_inf_cols) -> None:
    n = len(cols[0])
    for j, col in enumerate(cols):
        if len(col) != n:
            raise ContractViolation("ragged columns")
        vals = np.asarray(col, dtype=float)
        bad = ~np.isfinite(vals)
        if j in allow_inf_cols:
            bad &= ~np.isposinf(vals)
        if np.any(bad):
            raise ContractViolation(f"non-finite value in CSV column {j}")
    # the k column of a solver trace as an integer, every other value with
    # 17 significant digits
    first = "%d" if header.startswith("k,") else "%.17g"
    row = ",".join([first] + ["%.17g"] * (len(cols) - 1)) + "\n"
    values = zip(*[np.asarray(col).tolist() for col in cols])
    with open(path, "w", newline="") as fh:
        fh.write(header + "\n")
        fh.writelines(row % r for r in values)


def read_csv(path) -> dict:
    """Read a trace CSV back into {column_name: ndarray}."""
    with open(path, "r", newline="") as fh:
        text = fh.read()
    lines = [ln for ln in text.split("\n") if ln != ""]
    if not lines:
        raise ContractViolation(f"empty CSV {path}")
    names = lines[0].split(",")
    rows = [ln.split(",") for ln in lines[1:]]
    if any(len(r) != len(names) for r in rows):
        raise ContractViolation(f"ragged CSV {path}")
    out = {}
    for j, name in enumerate(names):
        vals = [float(r[j]) for r in rows]
        if name == "k":
            out[name] = np.asarray(vals, dtype=np.int64)
        else:
            out[name] = np.asarray(vals, dtype=float)
    return out
