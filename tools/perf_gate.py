#!/usr/bin/env python3
"""Bench regression gate: one row-keyed table, one policy per field.

Every BENCH json (fig15_scale's "engine" section, ext_fault's "fault",
fig10_buffer_opt's "fig10") is read once into rows keyed by (section,
row key): engine rows by (topo, shards), fault by its headline, its
per-scheme rows and its scalars, fig10 as one full-section row. Each
field then gets one policy from POLICIES:

  det-exact      a pure function of the simulation: --compare holds the
                 two legs to equality (every fault and fig10 field, the
                 engine rows' event counts and high-water marks).
  must-hold      must be true in the current run (engine det, the fault
                 headline's all-complete / goodput-recovered booleans).
  higher band    events/sec at 1, 8 and 16 shards: must stay above
                 baseline x machine factor x (1 - 25%), where the machine
                 factor is the best single-shard current/baseline ratio
                 (capped at 1), so a uniformly slower runner passes and a
                 subsystem that regressed against its peers fails; and
                 above a hard floor, 25% of the committed value, that a
                 drifting history cannot ratchet down.
  lower band     peak RSS (+15%) and fault recovery latency (+25%),
                 one-sided: shrinking never fails.
  info / exempt  shown in the report, or ignored (scheduling telemetry).

A band field's baseline is the median of its row's last 3 history values
recorded at the same BFC_BENCH_SCALE on the same host (unstamped runs
match any host), read from the committed history file (--history-file,
oldest) and then the CI cache dir (--history, newest). A run without the
field for that row neither feeds nor uses up the window. With no history
the committed file (--baseline) backs the field: throughput at any
scale, RSS and recovery only at the same scale. The committed rows also
fix the gated throughput surface: a committed row the current run lacks
fails, unless its topo is opt-in (OPT_IN_TOPOS) and absent altogether.

--compare COLD WARM is the warm-start correctness gate: the resident
leg must record the same rows as the cold leg, with every det-exact
field identical. --self-test exercises the gate on synthetic inputs.
Malformed inputs fail with one line naming the file; unreadable history
entries are skipped and counted.
"""

import argparse
import glob
import json
import os
import sys
from collections import namedtuple
from statistics import median

# kind: "hold", "higher", "lower", "info" or None (no check in the gate);
# det: --compare holds the legs to equality; any_scale: the committed
# value backs the field at any scale (else only at the same scale).
Policy = namedtuple("Policy", "kind band any_scale det")
EXEMPT = Policy(None, 0, False, False)
EXACT = Policy(None, 0, False, True)
HOLD = Policy("hold", 0, False, True)
INFO = Policy("info", 0, False, True)

POLICIES = {
    "engine": {
        None: EXEMPT,  # wall-clock, steal and clock telemetry
        "topo": EXACT, "shards": EXACT, "events": EXACT,
        "shard_events": EXACT, "ports_hw": EXACT, "slab_hw": EXACT,
        "det": HOLD,
        "events_per_sec": Policy("higher", 0.25, True, False),
        "peak_rss_kb": Policy("lower", 0.15, False, False),
    },
    "fault": {
        None: EXACT,
        "bfc_all_complete": HOLD, "bfc_goodput_recovered": HOLD,
        "bfc_recovery_us": Policy("lower", 0.25, False, True),
        "bfc_blackholed": INFO, "bfc_buffer_p99_mb": INFO,
    },
    "fig10": {None: EXACT},
}
SECTIONS = tuple(POLICIES)
GATED_SHARDS = (1, 8, 16)  # events/sec is gated at these shard counts
OPT_IN_TOPOS = ("t3_16384", "t3_65536")  # fig15 runs them on request
HARD_FLOOR = 0.25  # x the committed events/sec, always
WINDOW = 3  # history values per band baseline
TRAJECTORY = 8  # points per sparkline, this run included
TABLES = (("Engine throughput (events/sec)", "engine", "events_per_sec"),
          ("Peak RSS kB per (topo, shards)", "engine", "peak_rss_kb"),
          ("Fault-plane gate (ext_fault headline)", "fault", None))

# rows: {(section, key): {field: value}}; scales: {section: scale}.
Run = namedtuple("Run", "rows scales host")


class BadInput(Exception):
    pass


def policy(key, field):
    section, row = key
    if (section == "engine" and field == "events_per_sec"
            and row[1] not in GATED_SHARDS):
        return EXEMPT
    table = POLICIES[section]
    return table.get(field, table[None])


def parse(doc):
    """One BENCH document (or one history run wrapped as its "engine"
    section) as a Run; raises BadInput on a shape the gate can't key."""
    if not isinstance(doc, dict):
        raise BadInput("not a JSON object")
    rows, scales = {}, {}
    for name in SECTIONS:
        sec = doc.get(name)
        if sec is None:
            continue
        if not isinstance(sec, dict):
            raise BadInput(f'"{name}" is not an object')
        scales[name] = sec.get("scale")
        if name == "engine":
            entries = sec.get("rows", [])
            if not isinstance(entries, list):
                raise BadInput("engine.rows is not a list")
            for i, r in enumerate(entries):
                if not (isinstance(r, dict) and isinstance(r.get("topo"), str)
                        and isinstance(r.get("shards"), int)):
                    raise BadInput(f"engine.rows[{i}] has no topo/shards")
                rows[(name, (r["topo"], r["shards"]))] = r
        elif name == "fault":
            per_scheme = sec.get("rows", {})
            if not isinstance(per_scheme, dict):
                raise BadInput("fault.rows is not an object")
            parts = dict(per_scheme, headline=sec.get("headline"))
            parts[""] = {k: v for k, v in sec.items()
                         if k not in ("rows", "headline")}
            for part, r in parts.items():
                if r is None:
                    continue
                if not isinstance(r, dict):
                    raise BadInput(f"fault row {part!r} is not an object")
                rows[(name, part)] = r
        else:
            rows[(name, "")] = sec
    host = doc.get("engine", {}).get("host")
    return Run(rows, scales, host if isinstance(host, dict) else {})


def load(path):
    try:
        with open(path) as f:
            return parse(json.load(f))
    except OSError as e:
        raise BadInput(f"{path}: cannot read ({e.strerror})")
    except ValueError as e:
        raise BadInput(f"{path}: not valid JSON ({e})")
    except BadInput as e:
        raise BadInput(f"{path}: {e}")


def load_history(history_file, history_dir):
    """History runs, oldest first: the committed history file's runs (each
    one fig15 engine section), then the cache dir's bench jsons (CI names
    them by zero-padded run number). Returns (runs, n_skipped): an
    unreadable entry is skipped and counted, never fatal."""
    docs = []
    if history_file:
        try:
            with open(history_file) as f:
                docs += [{"engine": run} for run in json.load(f)["runs"]]
        except (OSError, ValueError, TypeError, KeyError):
            docs.append(None)
    if history_dir:
        for path in sorted(glob.glob(os.path.join(history_dir, "*.json"))):
            try:
                with open(path) as f:
                    docs.append(json.load(f))
            except (OSError, ValueError):
                docs.append(None)
    runs = []
    for doc in docs:
        try:
            runs.append(parse(doc))
        except BadInput:
            pass
    return runs, len(docs) - len(runs)


def num(v):
    return v if isinstance(v, (int, float)) and not isinstance(v, bool) \
        else None


def same_host(a, b):
    """An unstamped side ({}: recorded before the stamp) matches any."""
    return not a or not b or (a.get("cpu_model"), a.get("nproc")) == \
        (b.get("cpu_model"), b.get("nproc"))


def same_scale(a, b):
    return a is None or b is None or a == b


def window(history, cur, key, field, n=WINDOW):
    """The last n positive values of (key, field) across history runs of
    the current run's scale and host."""
    vals = []
    for run in history:
        v = num(run.rows.get(key, {}).get(field))
        if (v is not None and v > 0 and same_host(run.host, cur.host)
                and same_scale(run.scales.get(key[0]),
                               cur.scales.get(key[0]))):
            vals.append(v)
    return vals[-n:]


def label(key):
    return f"{key[1][0]}@{key[1][1]}sh" if key[0] == "engine" \
        else f"{key[0]} {key[1]}".rstrip()


def diff_paths(a, b, path):
    """(path, cold, warm) for every leaf at which two values differ."""
    if type(a) is not type(b):
        yield path, a, b
    elif isinstance(a, dict):
        for k in sorted(set(a) | set(b)):
            yield from diff_paths(a.get(k), b.get(k), f"{path}/{k}")
    elif isinstance(a, list):
        if len(a) != len(b):
            yield f"{path} (length)", len(a), len(b)
        for i, (x, y) in enumerate(zip(a, b)):
            yield from diff_paths(x, y, f"{path}[{i}]")
    elif a != b:
        yield path, a, b


def gate(cur, base, history=(), compare=False):
    """The one gate loop. Normal mode applies the must-hold and band
    policies to `cur` against `base` (the committed file) and `history`;
    compare mode applies det-exact between `cur` (cold) and `base`
    (resident). Returns (failures, results, factor); results are
    (key, field, baseline, n_window, value, status) tuples, one per row
    in compare mode (field None, value = det-exact fields compared)."""
    failures, results = [], []

    def expected(key, field):
        vals = window(history, cur, key, field)
        if vals:
            return median(vals), len(vals)
        v = num(base.rows.get(key, {}).get(field))
        ok = policy(key, field).any_scale or same_scale(
            base.scales.get(key[0]), cur.scales.get(key[0]))
        return (v, 0) if v is not None and v > 0 and ok else (None, 0)

    ratios = []
    for key, row in cur.rows.items():
        v = num(row.get("events_per_sec"))
        if not compare and key[0] == "engine" and key[1][1] == 1 and v:
            exp, _ = expected(key, "events_per_sec")
            if exp and v > 0:
                ratios.append(v / exp)
    factor = min(1.0, max(ratios)) if ratios else 1.0
    present = {key[1][0] for key in cur.rows if key[0] == "engine"}

    for key in list(cur.rows) + [k for k in base.rows if k not in cur.rows]:
        c, b = cur.rows.get(key), base.rows.get(key, {})
        fields = list(c or {}) + [f for f in b if f not in (c or {})]
        if compare:
            if c is None or key not in base.rows:
                side = "resident" if c is None else "cold"
                failures.append(f"{label(key)}: recorded by the {side} leg "
                                "only")
                results.append((key, None, None, 0, 0, "FAIL"))
                continue
            det = [f for f in fields if policy(key, f).det]
            diffs = [d for f in det
                     for d in diff_paths(c.get(f), b.get(f), f"/{f}")]
            for path, x, y in diffs[:10]:
                failures.append(f"{label(key)}: {path} differs (cold {x} "
                                f"vs resident {y})")
            if len(diffs) > 10:
                failures.append(f"{label(key)}: ...and {len(diffs) - 10} "
                                "more paths")
            results.append((key, None, None, 0, len(det),
                            "FAIL" if diffs else "ok"))
            continue
        for field in fields:
            pol = policy(key, field)
            if pol.kind is None or (c is None and not pol.any_scale):
                continue
            out = [key, field, None, 0, None, "ok"]
            if pol.kind == "hold":
                out[4] = c.get(field)
                if not c.get(field):
                    out[-1] = "FAIL"
                    failures.append(f"{label(key)}: {field} = "
                                    f"{c.get(field)!r}, must hold")
            elif pol.kind == "info":
                out[-2:] = [c.get(field), "info"]
            else:
                v = num(c.get(field)) if c else None
                exp, n = expected(key, field)
                out[2:5] = [exp, n, v]
                if pol.kind == "higher" and v is not None and v <= 0:
                    out[-1] = "FAIL"
                    failures.append(f"{label(key)}: zero {field}")
                elif v is None or v <= 0:
                    if not pol.any_scale or not num(b.get(field)):
                        continue
                    if c is None and key[1][0] in OPT_IN_TOPOS and \
                            key[1][0] not in present:
                        out[-1] = "skipped (opt-in, not in this run)"
                    else:
                        out[-1] = "MISSING"
                        failures.append(
                            f"{label(key)}: the committed baseline records "
                            f"{field} {b[field]:,} but the current run has "
                            "none")
                elif exp is None:
                    out[-1] = "new (no baseline)"
                elif pol.kind == "lower":
                    if v > exp * (1 + pol.band):
                        out[-1] = "REGRESSION"
                        failures.append(
                            f"{label(key)}: {field} {v:,.6g} is "
                            f"{v / exp - 1:+.1%} vs the baseline "
                            f"{exp:,.6g} (allowed +{pol.band:.0%})")
                else:
                    limit = exp * factor * (1 - pol.band)
                    floor = (num(b.get(field)) or exp) * HARD_FLOOR
                    if v < limit:
                        out[-1] = "REGRESSION"
                        failures.append(
                            f"{label(key)}: {v:,.0f} ev/s is below the gate "
                            f"({limit:,.0f} = baseline {exp:,.0f} x machine "
                            f"factor {factor:.2f} x (1 - {pol.band:.2f}))")
                    elif v < floor:
                        out[-1] = "REGRESSION (hard floor)"
                        failures.append(
                            f"{label(key)}: {v:,.0f} ev/s is below the hard "
                            f"floor ({floor:,.0f} = {HARD_FLOOR:.2f} x "
                            f"committed {floor / HARD_FLOOR:,.0f})")
            results.append(tuple(out))
    return failures, results, factor


SPARK_CHARS = "▁▂▃▄▅▆▇█"


def sparkline(values):
    """Normalized to the series' own min..max (flat renders mid-scale)."""
    if not values:
        return ""
    lo, hi = min(values), max(values)
    if hi <= lo:
        return SPARK_CHARS[3] * len(values)
    span = len(SPARK_CHARS) - 1
    return "".join(SPARK_CHARS[int((v - lo) / (hi - lo) * span + 0.5)]
                   for v in values)


def host_line(cur):
    """The machine, and the executors + helper executors each multi-shard
    row ran with ("?" for rows recorded before the executors field)."""
    if not cur.host:
        return "Host: not recorded."
    layout = {}
    for (section, key), r in cur.rows.items():
        if section == "engine" and key[1] > 1:
            layout.setdefault(key[1], (r.get("executors", "?"),
                                       r.get("helpers", 0)))
    per = ", ".join(f"{s} shards: {e} + {h}"
                    for s, (e, h) in sorted(layout.items()))
    return (f"Host: {cur.host.get('cpu_model', '?')}, nproc "
            f"{cur.host.get('nproc', '?')}; executors + helpers per row: "
            f"{per or 'none'}.")


def fmt(v):
    if num(v) is None:
        return "-"
    return f"{v:,.0f}" if abs(v) >= 1000 else f"{v:,.6g}"


def render(cur, history, results, factor, n_skipped=0, compare=False):
    """The markdown report: in compare mode one row table; otherwise the
    host line, the perf, RSS and fault tables and the trajectory."""
    if compare:
        return "\n".join(
            ["## Warm-start correctness gate (cold vs resident leg)", "",
             "| row | det-exact fields | status |", "|---|---:|---|"] +
            [f"| {label(key)} | {v} | {status} |"
             for key, _, _, _, v, status in results]) + "\n"
    n_other = sum(not same_host(run.host, cur.host) for run in history)
    lines = ["## Bench gate", "", host_line(cur), "",
             f"Band baseline: median of each row's last {WINDOW} "
             "same-scale, same-host history values (window column), else "
             "the committed file (window 0); rows without either pass as "
             f"new. Machine factor {factor:.2f}; scale "
             f"{cur.scales.get('engine')}."
             + (f" {n_other} history runs from another host left out."
                if n_other else "")
             + (f" {n_skipped} unreadable history entries skipped."
                if n_skipped else ""), ""]
    for title, section, field in TABLES:
        picked = [r for r in results
                  if r[0][0] == section and field in (None, r[1])]
        if not picked:
            continue
        lines += [f"## {title}", "",
                  "| row | baseline | window | this run | delta | status |",
                  "|---|---:|---:|---:|---:|---|"]
        for key, f, exp, n, v, status in picked:
            delta = f"{v / exp - 1:+.1%}" if exp and num(v) else "-"
            name = label(key) if section == "engine" else f
            lines.append(f"| {name} | {fmt(exp)} | {n} | {fmt(v)} | "
                         f"{delta} | {status} |")
        lines.append("")
    spark = []
    for key, field, _, _, v, _ in results:
        if field == "events_per_sec" and num(v):
            series = window(history, cur, key, field, TRAJECTORY - 1) + [v]
            if len(series) > 1:
                spark.append(f"| {label(key)} | "
                             + " ".join(f"{x / 1e6:.2f}" for x in series)
                             + f" | {sparkline(series)} |")
    if spark:
        lines += ["## Throughput trajectory (Mev/s, oldest -> newest)", "",
                  "| row | Mev/s | spark |", "|---|---|---|"] + spark + [""]
    return "\n".join(lines)


def self_test():
    import subprocess
    import tempfile

    def row(topo, shards, eps=None, **fields):
        r = {"topo": topo, "shards": shards, "det": True, **fields}
        if eps is not None:
            r["events_per_sec"] = eps
        return r

    def bench(rows=(), scale=None, host=None, **sections):
        engine = {"rows": list(rows)}
        if scale is not None:
            engine["scale"] = scale
        if host is not None:
            engine["host"] = host
        return dict(sections, engine=engine) if rows or host else sections

    def check(cur, base, history=()):
        failures, results, _ = gate(parse(cur), parse(base),
                                    [parse(h) for h in history])
        return failures, {(label(k), f): tuple(rest)
                          for k, f, *rest in results}

    def fails(cur, base, history=()):
        return check(cur, base, history)[0]

    def status(cur, base, history, name, field="events_per_sec"):
        return check(cur, base, history)[1][(name, field)][-1]

    committed = bench([row("t1_128", 1, 4_000_000),
                       row("t3_1024", 1, 2_400_000)])
    healthy = bench([row("t1_128", 1, 3_900_000),
                     row("t3_1024", 1, 2_500_000),
                     row("t3_4096", 1, 2_400_000)])
    assert fails(healthy, committed) == [], "healthy run must pass"
    assert status(healthy, committed, (), "t3_4096@1sh") == \
        "new (no baseline)", "a row the baseline lacks passes as new"

    # Injected -33% on one topo fails; a uniformly 40% slower machine is
    # divided out by the machine factor; a collapse still hits the floor.
    regressed = bench([row("t1_128", 1, 3_900_000),
                       row("t3_1024", 1, 1_600_000)])
    assert any("t3_1024@1sh" in m for m in fails(regressed, committed)), \
        "relative 33% drop must fail"
    slow = bench([row("t1_128", 1, 2_340_000), row("t3_1024", 1, 1_500_000),
                  row("t3_4096", 1, 1_440_000)])
    assert fails(slow, committed) == [], "uniform slowness must pass"
    collapse = bench([row("t1_128", 1, 1), row("t3_1024", 1, 1)])
    assert any("hard floor" in m for m in fails(collapse, committed)), \
        "collapse must fail the hard floor"
    zero = bench([row("t1_128", 1, 0), row("t3_1024", 1, 2_400_000)])
    assert any("zero events_per_sec" in m for m in fails(zero, committed))

    # det is must-hold; a committed topo dropped from the sweep fails.
    bad_det = bench([row("t1_128", 1, 4_000_000, det=False),
                     row("t3_1024", 1, 2_400_000)])
    assert any("det = False, must hold" in m
               for m in fails(bad_det, committed)), "det=false must fail"
    partial = bench([row("t1_128", 1, 4_000_000)])
    assert any("t3_1024@1sh" in m and "has none" in m
               for m in fails(partial, committed)), \
        "missing committed topo must fail"

    # ...unless the topo is opt-in and absent altogether: then it is a
    # visible skipped row. A present opt-in topo gates like any other.
    opt_base = bench([row("t1_128", 1, 4_000_000),
                      row("t3_16384", 1, 800_000),
                      row("t3_16384", 8, 900_000)])
    default_set = bench([row("t1_128", 1, 4_000_000)])
    assert fails(default_set, opt_base) == [], \
        "an opt-in topo may be absent from the run"
    assert status(default_set, opt_base, (), "t3_16384@8sh").startswith(
        "skipped"), "an absent opt-in topo shows as a skipped row"
    opt_slow = bench([row("t1_128", 1, 4_000_000),
                      row("t3_16384", 1, 500_000),
                      row("t3_16384", 8, 900_000)])
    assert fails(opt_slow, opt_base), "a present opt-in topo is gated"
    opt_partial = bench([row("t1_128", 1, 4_000_000),
                         row("t3_16384", 1, 800_000)])
    assert any("t3_16384@8sh" in m for m in fails(opt_partial, opt_base)), \
        "a present opt-in topo may not drop a committed row"

    # Multi-shard rows gate like single-shard ones; shard counts outside
    # GATED_SHARDS are not gated.
    committed8 = bench([row("t3_4096", 1, 400_000),
                        row("t3_4096", 2, 700_000),
                        row("t3_4096", 8, 1_300_000),
                        row("t3_4096", 16, 1_250_000)])
    healthy8 = bench([row("t3_4096", 1, 410_000), row("t3_4096", 2, 1),
                      row("t3_4096", 8, 1_280_000),
                      row("t3_4096", 16, 1_300_000)])
    f8, res8 = check(healthy8, committed8)
    assert f8 == [], "healthy multi-shard rows pass; 2 shards is not gated"
    assert res8[("t3_4096@8sh", "events_per_sec")] == \
        (1_300_000, 0, 1_280_000, "ok"), "no history: the committed value"
    assert ("t3_4096@16sh", "events_per_sec") in res8 and \
        ("t3_4096@2sh", "events_per_sec") not in res8
    slow8 = bench([row("t3_4096", 1, 410_000),
                   row("t3_4096", 8, 800_000),  # -38% at 8 shards
                   row("t3_4096", 16, 1_300_000)])
    assert [m for m in fails(slow8, committed8) if "@8sh" in m], \
        "a scaling-path regression must fail with shards1 healthy"
    dropped8 = bench([row("t3_4096", 1, 410_000)])
    f8 = fails(dropped8, committed8)
    assert any("@8sh" in m for m in f8) and any("@16sh" in m for m in f8) \
        and not any("@2sh" in m for m in f8), \
        "dropping a committed gated row must fail"
    no_col = bench([row("t3_4096", 1, 410_000), row("t3_4096", 8),
                    row("t3_4096", 16, 1_300_000)])
    assert any("@8sh" in m and "has none" in m
               for m in fails(no_col, committed8)), \
        "a row missing its committed events_per_sec must fail"

    # The rolling window: per (row, field) median of the last 3 history
    # values of this scale and host, read from the history file first and
    # the cache dir second. Runs lacking the field do not use up a slot.
    with tempfile.TemporaryDirectory() as d:
        def put(name, doc):
            path = os.path.join(d, name)
            with open(path, "w") as f:
                json.dump(doc, f)
            return path

        cache = os.path.join(d, "cache")
        os.mkdir(cache)
        for i, eps in enumerate((1_000_000, 5_000_000, 4_800_000)):
            put(f"cache/run-{i:08d}.json",
                bench([row("t1_128", 1, eps)], scale=0.05))
        put("cache/run-00000003.json",  # no t1_128: takes no slot
            bench([row("t3_1024", 1, 2_000_000)], scale=0.05))
        put("cache/run-00000004.json",  # off scale: left out
            bench([row("t1_128", 1, 50_000_000)], scale=1.0))
        put("cache/run-00000005.json",
            bench([row("t1_128", 1, 9_000_000)], scale=0.05))
        cur = parse(bench([row("t1_128", 1, 1)], scale=0.05))
        hist, n_bad = load_history(None, cache)
        assert n_bad == 0 and len(hist) == 6
        assert window(hist, cur, ("engine", ("t1_128", 1)),
                      "events_per_sec") == [5_000_000, 4_800_000, 9_000_000]
        drooped = bench([row("t1_128", 1, 3_500_000),
                         row("t3_1024", 1, 2_400_000)], scale=0.05)
        assert any("t1_128@1sh" in m and "baseline 5,000,000" in m
                   for m in fails(drooped, committed, [
                       json.load(open(p)) for p in
                       sorted(glob.glob(os.path.join(cache, "*.json")))])), \
            "30% below the rolling median (5.0M of 5.0/4.8/9.0M) fails"
        assert fails(drooped, committed) == [], \
            "...though the stale committed 4.0M missed it"
        assert load_history(None, os.path.join(d, "none")) == ([], 0)

        hist_file = put("BENCH_history.json", {"runs": [
            {"scale": 0.05, "rows": [row("t3_4096", 1, 440_000),
                                     row("t3_4096", 8, 1_400_000)]},
            {"scale": 0.05, "rows": [row("t3_4096", 1, 460_000),
                                     row("t3_4096", 8, 1_500_000)]},
            "garbage",
        ]})
        later = os.path.join(d, "later")
        os.mkdir(later)
        put("later/run-00000001.json",
            bench([row("t3_4096", 1, 480_000)], scale=0.05))
        put("later/run-00000002.json", "not json {")
        with open(os.path.join(later, "run-00000003.json"), "w") as f:
            f.write("{truncated")
        hist, n_bad = load_history(hist_file, later)
        assert (len(hist), n_bad) == (3, 3), \
            "corrupt history entries are skipped and counted"
        cur = parse(bench([row("t3_4096", 1, 1)], scale=0.05))
        assert window(hist, cur, ("engine", ("t3_4096", 1)),
                      "events_per_sec") == [440_000, 460_000, 480_000]
        assert median(window(hist, cur, ("engine", ("t3_4096", 8)),
                             "events_per_sec")) == 1_450_000
        hist, n_bad = load_history(os.path.join(d, "no.json"), later)
        assert (len(hist), n_bad) == (1, 3), "an absent file is one skip"
        assert "3 unreadable history entries skipped" in render(
            cur, hist, [], 1.0, n_bad)

    # Host stamps: another host's runs leave the window and are counted;
    # unstamped runs count; with none left the committed value stands.
    xeon = {"cpu_model": "Xeon", "nproc": 4}
    epyc = {"cpu_model": "EPYC", "nproc": 64}
    hist = [parse(bench([row("t3_4096", 1, eps)], host=h))
            for eps, h in ((400_000, None), (4_000_000, epyc),
                           (500_000, xeon), (9_000_000, epyc))]
    key = ("engine", ("t3_4096", 1))
    cur = parse(bench([row("t3_4096", 1, 1)], host=xeon))
    assert window(hist, cur, key, "events_per_sec") == [400_000, 500_000]
    assert "2 history runs from another host left out" in render(
        cur, hist, [], 1.0)
    assert window(hist, parse(bench([row("t3_4096", 1, 1)])), key,
                  "events_per_sec") == [4_000_000, 500_000, 9_000_000]
    m1 = parse(bench([row("t3_4096", 1, 1)],
                     host={"cpu_model": "M1", "nproc": 8}))
    assert window(hist, m1, key, "events_per_sec") == [400_000]
    assert same_host(xeon, {}) and not same_host(
        xeon, {"cpu_model": "Xeon", "nproc": 8}), "nproc is part of it"

    # The hard floor stays anchored to the committed value while the
    # median drifts: successive in-band regressions cannot compound.
    drift = [bench([row("t1_128", 1, 1_200_000)])] * 3
    crawling = bench([row("t1_128", 1, 950_000),
                      row("t3_1024", 1, 2_400_000)])
    assert any("hard floor" in m for m in fails(crawling, committed, drift)), \
        "committed-anchored floor must catch the ratchet (4.0M -> 0.95M)"

    # Sparkline + trajectory: history tail plus this run, per row.
    assert sparkline([]) == ""
    assert sparkline([5, 5, 5]) == SPARK_CHARS[3] * 3
    sp = sparkline([1, 4, 8])
    assert sp[0] == SPARK_CHARS[0] and sp[-1] == SPARK_CHARS[-1]
    hist = [bench([row("t1_128", 1, 4_000_000)], scale=0.05),
            bench([row("t1_128", 1, 4_400_000),
                   row("t3_1024", 1, 2_000_000)], scale=0.05),
            bench([row("t1_128", 1, 99_000_000)], scale=1.0),
            bench([row("t1_128", 1, 77_000_000)], scale=0.05, host=epyc)]
    cur_doc = bench([row("t1_128", 1, 4_200_000),
                     row("t3_1024", 1, 2_100_000)], scale=0.05, host=xeon)
    cur = parse(cur_doc)
    hist = [parse(h) for h in hist]
    _, results, factor = gate(cur, parse(committed), hist)
    rep = render(cur, hist, results, factor)
    assert "4.00 4.40 4.20" in rep and "2.00 2.10" in rep, \
        "series = history tail + current; a row new in old runs plots"
    assert "99.00" not in rep and "77.00" not in rep, \
        "off-scale and other-host history are not plotted"
    assert "Mev/s" not in render(cur, [], results, factor), \
        "no history -> no trajectory table"
    many = [parse(bench([row("t1_128", 1, 1_000_000 * (i + 1))]))
            for i in range(12)]
    rep = render(cur, many, results, factor)
    assert " 5.00" not in rep and "12.00" in rep, "only the window tail"

    # Peak RSS: one-sided +15%; the committed rows back it only at the
    # same scale; shrinkage, zero-RSS rows and new rows pass.
    com_rss = bench([row("t3_4096", 1, peak_rss_kb=1_400_000),
                     row("t3_4096", 8, peak_rss_kb=1_430_000)], scale=1.0)
    grown = bench([row("t3_4096", 1, peak_rss_kb=1_700_000),
                   row("t3_4096", 8, peak_rss_kb=1_430_000)], scale=1.0)
    ff = fails(grown, com_rss)
    assert len(ff) == 1 and "t3_4096@1sh: peak_rss_kb" in ff[0], \
        "+21% RSS on one row fails without dragging the healthy row"
    lean = bench([row("t3_4096", 1, peak_rss_kb=900_000),
                  row("t3_4096", 8, peak_rss_kb=1_500_000)], scale=1.0)
    _, results, factor = gate(parse(lean), parse(com_rss))
    assert fails(lean, com_rss) == [], "shrinkage and +5% pass"
    assert "| t3_4096@1sh | 1,400,000 | 0 | 900,000 | -35.7% | ok |" in \
        render(parse(lean), [], results, factor), "RSS rows render"
    novel = bench([row("t3_65536", 1, peak_rss_kb=3_900_000),
                   row("t1_128", 1, peak_rss_kb=0)], scale=1.0)
    _, res = check(novel, com_rss)
    assert {k: v for k, v in res.items() if k[1] == "peak_rss_kb"} == {
        ("t3_65536@1sh", "peak_rss_kb"):
                   (None, 0, 3_900_000, "new (no baseline)")}, \
        "rows without a baseline pass as new; zero-RSS rows drop out"
    small = bench([row("t3_4096", 1, peak_rss_kb=130_000)], scale=0.05)
    assert fails(small, com_rss) == [], \
        "a full-scale committed RSS row must not gate a 0.05-scale run"
    rss_hist = [bench([row("t3_4096", 1, peak_rss_kb=kb)], scale=sc, host=h)
                for kb, sc, h in ((90_000, 0.05, None), (100_000, 0.05, None),
                                  (400_000, 1.0, None),
                                  (900_000, 0.05, epyc),
                                  (110_000, 0.05, xeon))]
    small = bench([row("t3_4096", 1, peak_rss_kb=130_000)], scale=0.05,
                  host=xeon)
    assert any("+30.0% vs the baseline 100,000" in m
               for m in fails(small, com_rss, rss_hist)), \
        "+30% vs the scale- and host-matched RSS median must fail"

    # Fault headline: must-hold booleans always, recovery latency in a
    # +25% band at a matched scale, no fault section -> no fault gating.
    def fault(scale=1.0, **head):
        h = dict(bfc_all_complete=1, bfc_goodput_recovered=1,
                 bfc_recovery_us=40.0, bfc_blackholed=120,
                 bfc_buffer_p99_mb=3.2)
        h.update(head)
        return {"scale": scale, "rows": {"BFC": {"blackholed": 3}},
                "headline": h}
    eng = [row("t1_128", 1, 4_000_000)]
    fbase = bench(eng, fault=fault())
    ok = bench(eng, fault=fault(bfc_recovery_us=44.0, bfc_blackholed=130))
    cur = parse(ok)
    _, results, factor = gate(cur, parse(fbase))
    rep = render(cur, [], results, factor)
    assert fails(ok, fbase) == [] and "| bfc_recovery_us | 40 | 0 | 44 |" \
        in rep and "| bfc_blackholed | - | 0 | 130 | - | info |" in rep
    lost = bench(eng, fault=fault(bfc_all_complete=0))
    assert any("bfc_all_complete = 0, must hold" in m
               for m in fails(lost, fbase))
    stuck = bench(eng, fault=fault(bfc_goodput_recovered=0))
    assert any("bfc_goodput_recovered" in m for m in fails(stuck, fbase))
    slow_rec = bench(eng, fault=fault(bfc_recovery_us=80.0))
    assert any("bfc_recovery_us 80 is +100.0%" in m
               for m in fails(slow_rec, fbase)), "2x recovery must fail"
    off = bench(eng, fault=fault(scale=0.05, bfc_recovery_us=80.0))
    assert fails(off, fbase) == [] and status(
        off, fbase, (), "fault headline", "bfc_recovery_us") == \
        "new (no baseline)", "recovery is not compared across scales"
    assert fails(bench(eng), fbase) == [], "no fault section, no gating"
    assert fails(lost, bench(eng)), "invariants hold with no baseline"

    # Warm-start compare: scheduling fields may drift, det-exact ones not.
    r = row("t1_128", 4, 187_784, events=93_892,
            shard_events=[20_000, 73_892], ports_hw=300, slab_hw=120,
            wall_sec=0.5, peak_rss_kb=20_000)
    cold = bench([r], fault={"scale": 1, "rows": {"BFC": {"blackholed": 3}},
                             "headline": {"bfc_recovery_us": 4}},
                 fig10={"rows": [{"flows": 8, "p99_kb": 75.1}]})

    def compare(a, b):
        return gate(parse(a), parse(b), compare=True)[0]

    warm = json.loads(json.dumps(cold))
    warm["engine"]["rows"][0].update(wall_sec=0.1, events_per_sec=938_920,
                                     peak_rss_kb=44_000)
    assert compare(cold, warm) == [], "scheduling drift passes the compare"
    for path, value, want in (
            (("engine", "rows", 0, "events"), 93_893, "/events differs"),
            (("engine", "rows", 0, "shard_events"), [20_001, 73_891],
             "/shard_events[0] differs"),
            (("engine", "rows", 0, "det"), False, "/det differs"),
            (("fig10", "rows", 0, "p99_kb"), 99.0,
             "fig10: /rows[0]/p99_kb differs (cold 75.1 vs resident 99.0)"),
            (("fault", "headline", "bfc_recovery_us"), 5,
             "fault headline: /bfc_recovery_us differs"),
            (("fault", "scale"), 0.05, "fault: /scale differs")):
        drifted = json.loads(json.dumps(warm))
        parent = drifted
        for p in path[:-1]:
            parent = parent[p]
        parent[path[-1]] = value
        assert any(want in m for m in compare(cold, drifted)), want
    drifted = json.loads(json.dumps(warm))
    del drifted["fault"]
    assert any("fault headline: recorded by the cold leg only" in m
               for m in compare(cold, drifted))
    drifted["engine"]["rows"] = []
    assert any("t1_128@4sh: recorded by the cold leg only" in m
               for m in compare(cold, drifted))
    assert compare({}, {}) == [], "two empty docs trivially match"
    _, results, _ = gate(parse(cold), parse(drifted), compare=True)
    assert "| t1_128@4sh | 0 | FAIL |" in render(
        parse(cold), [], results, 1.0, compare=True)

    # Host line: machine plus each multi-shard row's executors + helpers.
    cur = parse(bench([row("t", 1, executors=1, helpers=0),
                       row("t", 2, executors=2, helpers=2),
                       row("t", 8, executors=4, helpers=0),
                       row("t", 16, helpers=0)], host=xeon))
    line = host_line(cur)
    assert "Xeon, nproc 4" in line and "2 shards: 2 + 2" in line and \
        "8 shards: 4 + 0" in line and "16 shards: ? + 0" in line and \
        "1 shards" not in line, line
    assert host_line(parse({})) == "Host: not recorded."
    assert line in render(cur, [], [], 1.0)

    # Malformed inputs: one line naming the file, exit 1, no traceback.
    with tempfile.TemporaryDirectory() as d:
        def put(name, text):
            path = os.path.join(d, name)
            with open(path, "w") as f:
                f.write(text)
            return path
        good = put("good.json", json.dumps(committed))
        cases = {
            put("list.json", "[1,2]"): "not a JSON object",
            put("norow.json", json.dumps({"engine": {"rows": [
                {"shards": 1}]}})): "engine.rows[0] has no topo/shards",
            put("trunc.json", '{"engine": '): "not valid JSON",
            put("engine.json", '{"engine": 3}'): '"engine" is not an object',
            os.path.join(d, "absent.json"): "cannot read",
        }
        for bad, why in cases.items():
            for argv in (["--current", bad, "--baseline", good],
                         ["--current", good, "--baseline", bad],
                         ["--compare", bad, good], ["--compare", good, bad]):
                p = subprocess.run([sys.executable, __file__] + argv,
                                   capture_output=True, text=True)
                assert p.returncode == 1 and p.stdout == "" and \
                    p.stderr.startswith(f"perf_gate: {bad}: {why}") and \
                    p.stderr.count("\n") == 1, (argv, p)
        p = subprocess.run([sys.executable, __file__, "--current",
                            put("empty.json", "{}"), "--baseline", good],
                           capture_output=True, text=True)
        assert p.returncode == 1 and p.stderr.endswith("no engine rows\n")
        p = subprocess.run([sys.executable, __file__, "--current", good,
                            "--baseline", good, "--history-file",
                            put("h.json", "[1,2]"), "--history", d],
                           capture_output=True, text=True)
        assert p.returncode == 0 and "unreadable history entries" in \
            p.stdout, "corrupt history never wedges the gate"
    print("perf_gate self-test ok")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--current", help="BENCH json from this run")
    ap.add_argument("--baseline", help="committed BENCH_engine.json")
    ap.add_argument("--history", help="directory of bench jsons from "
                    "previous CI runs (newest history)")
    ap.add_argument("--history-file", help="committed BENCH_history.json "
                    "(oldest history; survives cache eviction)")
    ap.add_argument("--summary", default=os.environ.get("GITHUB_STEP_SUMMARY"),
                    help="markdown file to append the report to")
    ap.add_argument("--compare", nargs=2, metavar=("COLD", "WARM"),
                    help="warm-start gate: the resident leg's det-exact "
                    "fields must equal the cold leg's")
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()

    if args.self_test:
        self_test()
        return 0
    if not args.compare and not (args.current and args.baseline):
        ap.error("--current and --baseline (or --compare / --self-test) "
                 "are required")
    try:
        if args.compare:
            cur, other = load(args.compare[0]), load(args.compare[1])
            history, n_skipped = [], 0
        else:
            cur, other = load(args.current), load(args.baseline)
            if not any(key[0] == "engine" for key in cur.rows):
                raise BadInput(f"{args.current}: no engine rows")
            history, n_skipped = load_history(args.history_file,
                                              args.history)
    except BadInput as e:
        print(f"perf_gate: {e}", file=sys.stderr)
        return 1
    failures, results, factor = gate(cur, other, history,
                                     compare=bool(args.compare))
    report = render(cur, history, results, factor, n_skipped,
                    compare=bool(args.compare))
    print(report)
    if args.summary:
        with open(args.summary, "a") as f:
            f.write(report + "\n")
    for msg in failures:
        print("perf_gate FAIL:", msg, file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
