"""Table and grid renderers that only the tests use.

These are the renderers that :mod:`switchosc.emit` replaced, kept unchanged
as its byte-for-byte reference: every float is ``repr`` of a Python float,
joined row by row, or ``json.dumps`` of the nested lists.
"""

import json


def header_value(v) -> str:
    """A header value as the CSV comments write it."""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return repr(v)
    if isinstance(v, list):
        return "[" + ", ".join(map(header_value, v)) + "]"
    return str(v)


def grid_meta(g) -> list:
    """The (key, text) pairs a grid writes first, before its comments or extra metadata."""
    p = g.params
    floats = (g.t, p.m, p.hbar, p.alpha, p.omega, g.z.real, g.z.imag)
    return [*zip(("t", "m", "hbar", "alpha", "omega", "z_re", "z_im"), map(repr, floats)),
            ("n_q", str(len(g.q_axis))), ("n_p", str(len(g.p_axis)))]


def emit_table(cfg, columns, rows, extra=()) -> str:
    """The text ``cli._emit_table`` writes for ``rows`` under ``columns``."""
    if cfg.format == "csv":
        lines = [f"# {k} = {header_value(v)}" for k, v in (*cfg.header.items(), *extra)]
        lines.append(",".join(columns))
        lines.extend(",".join(map(repr, row)) for row in rows.tolist())
        return "\n".join(lines) + "\n"
    doc: dict = {"config": cfg.header}
    for k, v in extra:
        doc[k] = v
    doc["columns"] = list(columns)
    doc["rows"] = rows.tolist()
    return json.dumps(doc, separators=(",", ":")) + "\n"


def grid_to_csv(g, comments=()) -> str:
    lines = [f"# {k} = {v}" for k, v in (*grid_meta(g), *comments)]
    lines.append("q,p,w")
    p_strs = [repr(pv) for pv in g.p_axis.tolist()]
    for qv, row in zip(g.q_axis.tolist(), g.values):
        q_s = repr(qv)
        lines.extend(f"{q_s},{p_s},{w!r}" for p_s, w in zip(p_strs, row.tolist()))
    return "\n".join(lines) + "\n"


def grid_to_json(g, extra_meta=None) -> str:
    meta: dict = {k: v for k, v in grid_meta(g)}
    if extra_meta:
        meta.update(extra_meta)
    doc = {
        "meta": meta,
        "q_axis": g.q_axis.tolist(),
        "p_axis": g.p_axis.tolist(),
        "values": [w for row in g.values.tolist() for w in row],
    }
    return json.dumps(doc, separators=(",", ":")) + "\n"
