#!/usr/bin/env python3
"""Regression check for the committed BENCH_*.json scaling studies.

Compares a freshly generated study against the committed one.  Two classes
of checks with different severities:

* Identity checks are HARD failures (exit 1): every ``identical`` /
  ``fixpoint_identical`` / ``reused`` field -- in timing rows,
  in scalar sections like ``batch`` or ``arena``, and anywhere nested (the
  walk is recursive, so the ``cache_mt`` / ``cache_mt_sharded`` determinism
  rows cannot hide a false verdict at any depth) -- must be true in the
  fresh study.  These assert bit-exact equivalence of optimized kernels
  against their reference twins, which no machine variance can excuse.  A fresh study that silently DROPS a committed
  ``cache_mt*``, ``serve_overload*`` or ``chip_*`` determinism section is a
  hard failure too: the identity claim must be re-proven, not removed.

* Failure counts are HARD failures too: any fresh entry carrying a
  ``failed`` field must match its ``expected_failed`` (default 0).  Plain
  pipeline rows must report zero nets below the ok rung; the
  ``fault_injection`` probe must fail exactly as many nets threaded as
  serial.  Either mismatch means the isolation layer lost determinism or
  the routers started degrading organically -- not machine variance.

* Liveness counts are HARD failures: any fresh entry carrying a ``hung``
  field must report zero -- a serve-overload request that started but never
  finished means graceful degradation lost a request instead of classifying
  it.  ``serve_overload`` rows must also carry their ``outcomes`` mix (the
  per-rung RouteStatus tally); a row that drops it hides the degradation
  ladder the study exists to witness, and like ``cache_mt*`` the whole
  section cannot silently disappear from a fresh study.

* Compile counts are HARD failures: any fresh entry carrying a
  ``compiles_per_net`` or ``compiles_per_routed_net`` field must not exceed
  1.0.  The batch pipeline compiles each net's FlatTree exactly once and
  every downstream stage shares that compile; a higher rate means a
  consumer regressed into re-deriving the IR.  With the hash-consed route
  cache attached, ``compiles_per_net`` may legally drop *below* 1.0
  (cache-served nets never compile); ``compiles_per_routed_net`` divides by
  the nets that actually executed the route ladder, so it stays an exact
  one-compile-per-routed-net witness either way.

* Speedup comparisons stay warn-only: rows are matched by section, optional
  kernel name, and size (``sinks`` or ``threads``), and a warning is printed
  when the fresh speedup drops below half the committed value.  Machine
  variance between the committing host and CI runners makes a hard speedup
  gate too noisy; the job output is the signal.

* Resident-footprint comparisons are warn-only the same way: any entry
  carrying ``resident_bytes`` (the cache RSS rows, e.g. ``cache_rss_100k``)
  warns when the fresh footprint exceeds 1.5x the committed value --
  payload interning regressing to per-net copies shows up here long before
  it shows up as a throughput loss.

Usage: check_bench_regression.py COMMITTED.json FRESH.json
"""

import json
import sys


def row_key(section, row):
    """Stable identity of a timing row: section, optional kernel, size."""
    # Pipeline scaling rows carry both fields; threads is the row identity
    # there (sinks is just the batch shape, which smoke runs shrink).
    size_field = "threads" if "threads" in row else "sinks"
    return (section, row.get("kernel", ""), size_field, row.get(size_field))


def timing_rows(study):
    """All timing rows in a study, keyed by row_key."""
    out = {}
    for section, rows in study.items():
        if not isinstance(rows, list):
            continue
        for row in rows:
            if isinstance(row, dict) and "speedup" in row and (
                "sinks" in row or "threads" in row
            ):
                out[row_key(section, row)] = row
    return out


IDENTITY_FIELDS = ("identical", "fixpoint_identical", "reused")


def identity_violations(study):
    """Every false identity-class field anywhere in the study (recursive)."""
    bad = []

    def walk(section, value):
        if isinstance(value, dict):
            if any(value.get(f, True) is False for f in IDENTITY_FIELDS):
                bad.append((section, value))
            for key, child in value.items():
                if isinstance(child, (dict, list)):
                    walk(f"{section}.{key}" if section else key, child)
        elif isinstance(value, list):
            for child in value:
                walk(section, child)

    for section, value in study.items():
        walk(section, value)
    return bad


def resident_rows(study):
    """Entries carrying ``resident_bytes``, keyed by section/kernel/size."""
    out = {}

    def walk(section, value):
        if isinstance(value, dict):
            if "resident_bytes" in value:
                key = (section, value.get("kernel", ""), value.get("nets"))
                out[key] = value
            for k, child in value.items():
                if isinstance(child, (dict, list)):
                    walk(f"{section}.{k}" if section else k, child)
        elif isinstance(value, list):
            for child in value:
                walk(section, child)

    for section, value in study.items():
        walk(section, value)
    return out


def failure_violations(study):
    """Every entry whose ``failed`` count differs from ``expected_failed``."""
    bad = []
    for section, value in study.items():
        entries = value if isinstance(value, list) else [value]
        for entry in entries:
            if not isinstance(entry, dict) or "failed" not in entry:
                continue
            expected = entry.get("expected_failed", 0)
            if entry["failed"] != expected:
                bad.append((section, entry, expected))
    return bad


def liveness_violations(study):
    """Hung requests and serve rows that dropped their outcome mix."""
    bad = []
    for section, value in study.items():
        entries = value if isinstance(value, list) else [value]
        for entry in entries:
            if not isinstance(entry, dict):
                continue
            if entry.get("hung", 0) != 0:
                bad.append((section, entry, f"hung={entry['hung']}"))
            if section.startswith("serve_overload") and not isinstance(
                entry.get("outcomes"), dict
            ):
                bad.append((section, entry, "missing outcomes mix"))
    return bad


def compile_rate_violations(study):
    """Every entry compiling more than once per (routed) net."""
    bad = []
    for section, value in study.items():
        entries = value if isinstance(value, list) else [value]
        for entry in entries:
            if not isinstance(entry, dict):
                continue
            for field in ("compiles_per_net", "compiles_per_routed_net"):
                if float(entry.get(field, 0.0)) > 1.0:
                    bad.append((section, entry, field))
    return bad


def describe(section, row):
    kernel = row.get("kernel")
    size = next(
        (f"{f}={row[f]}" for f in ("threads", "sinks") if f in row), ""
    )
    parts = [p for p in (kernel, size) if p]
    return f"{section}[{', '.join(parts)}]" if parts else section


def main(argv):
    if len(argv) != 3:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    try:
        with open(argv[1]) as f:
            committed = json.load(f)
        with open(argv[2]) as f:
            fresh = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        print(f"warning: cannot compare benchmarks: {e}")
        return 0

    failed = False
    for section, entry in identity_violations(fresh):
        field = next(f for f in IDENTITY_FIELDS if entry.get(f, True) is False)
        print(f"FAIL: {describe(section, entry)}: {field} is false")
        failed = True

    for section, entry, expected in failure_violations(fresh):
        print(
            f"FAIL: {describe(section, entry)}: failed={entry['failed']} "
            f"(expected {expected})"
        )
        failed = True

    for section, entry, why in liveness_violations(fresh):
        print(f"FAIL: {describe(section, entry)}: {why}")
        failed = True

    for section, entry, field in compile_rate_violations(fresh):
        print(
            f"FAIL: {describe(section, entry)}: "
            f"{field}={entry[field]} (limit 1.0)"
        )
        failed = True

    for section in committed:
        if (
            section.startswith("cache_mt")
            or section.startswith("serve_overload")
            or section.startswith("chip_")
        ) and section not in fresh:
            print(f"FAIL: fresh study dropped determinism section {section}")
            failed = True

    committed_rows = timing_rows(committed)
    fresh_rows = timing_rows(fresh)
    warned = False
    committed_resident = resident_rows(committed)
    for key, frow in sorted(resident_rows(fresh).items(), key=str):
        crow = committed_resident.get(key)
        if crow is None:
            continue  # smoke runs shrink the batch; sizes will not match
        committed_bytes = int(crow["resident_bytes"])
        fresh_bytes = int(frow["resident_bytes"])
        if committed_bytes > 0 and fresh_bytes > 1.5 * committed_bytes:
            print(
                f"warning: {describe(key[0], frow)}: resident_bytes grew "
                f"{committed_bytes} -> {fresh_bytes}"
            )
            warned = True
    for key, crow in sorted(committed_rows.items(), key=str):
        frow = fresh_rows.get(key)
        if frow is None:
            continue  # smoke runs cover a size subset; that is fine
        section = key[0]
        committed_speedup = float(crow["speedup"])
        fresh_speedup = float(frow["speedup"])
        if committed_speedup > 0 and fresh_speedup < 0.5 * committed_speedup:
            print(
                f"warning: {describe(section, frow)}: speedup regressed "
                f"{committed_speedup:.2f}x -> {fresh_speedup:.2f}x"
            )
            warned = True
        else:
            print(
                f"ok: {describe(section, frow)}: committed "
                f"{committed_speedup:.2f}x, fresh {fresh_speedup:.2f}x"
            )

    if failed:
        print("identity check FAILED")
        return 1
    if not warned:
        print("no speedup regressions detected")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
