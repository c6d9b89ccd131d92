#!/usr/bin/env python3
"""Run a tracked bench binary and append the results to its trajectory file.

The repo-root BENCH_kernels.json holds the performance trajectory of the
functional substrate across PRs: one entry per recorded run, each with the
google-benchmark numbers for the tracked kernel series. Subsequent PRs append
entries (label them after the change) so regressions are visible in the diff.
With --chaos, the binary is bench_chaos_resilience instead and its modelled
jitter-resilience sweep (docs/CHAOS.md) is recorded to BENCH_chaos.json the
same way.

Usage:
    tools/record_bench.py --binary build/bench/bench_kernels \
        --label pr1-fastpath [--note "..."] [--out BENCH_kernels.json]
    tools/record_bench.py --chaos --binary build/bench/bench_chaos_resilience \
        --label pr4-chaos [--out BENCH_chaos.json]
    tools/record_bench.py --check [--out BENCH_kernels.json]

With --check no benchmark is run: the trajectory file is validated instead —
JSON schema (description + entries, each entry labelled/dated with a
benchmarks map) and presence of every tracked series in the *latest* entry,
so CI fails if a PR adds a series without recording it (or breaks the file
by hand-editing). Series matching is prefix-safe: "BM_StencilSweep" requires
a benchmark named "BM_StencilSweep" or "BM_StencilSweep/...", and is not
satisfied by "BM_StencilSweepFused/..." alone.

With --service --check, BENCH_service.json is validated instead: the SLO
trajectory `advectctl gameday --bench` appends (docs/SERVICE.md) — each
entry needs a label, an ISO date and a report object with the game-day
name, admission counters and the per-tenant SLO block. Recording itself is
done by advectctl (the daemon owns the numbers), so --service without
--check is an error.

Stdlib only; requires the bench binary to be built first (CMake targets
`bench_record` / `bench_record_chaos` do both).
"""

import argparse
import datetime
import json
import pathlib
import platform
import subprocess
import sys

# The regression-tracked series (benchmark name prefixes).
TRACKED = (
    "BM_StencilSweep",
    "BM_StencilSweepFused",
    "BM_StencilSweepVar",
    "BM_StencilRows",
    "BM_StencilRows27",
    "BM_CopyRows",
    "BM_PeriodicHaloFill",
    "BM_HaloFillParallel",
    "BM_PackUnpackFace",
    "BM_RowSpaceDecode",
    "BM_SimulatedGpuStencil",
)


def series_present(series: str, names) -> bool:
    """True when a benchmark of the exact series exists: the series name
    itself or the series name followed by an argument part. Plain prefix
    matching would let BM_StencilSweepFused/... satisfy BM_StencilSweep."""
    return any(n == series or n.startswith(series + "/") for n in names)


# Required of every tenant block in a BENCH_service.json report entry
# (mirrors service::TenantSlo's JSON form; see src/service/slo.cpp).
SERVICE_TENANT_KEYS = (
    "tenant", "weight", "submitted", "completed", "failed",
    "deadline_hit_rate", "queue_wait_p50_s", "queue_wait_p90_s",
    "queue_wait_p99_s", "served_cost_s", "contended_cost_s",
    "absorbed_fraction",
)


def check_service_trajectory(out_path: pathlib.Path) -> int:
    errors = []
    try:
        doc = json.loads(out_path.read_text())
    except FileNotFoundError:
        print(f"--check: {out_path} does not exist", file=sys.stderr)
        return 1
    except json.JSONDecodeError as e:
        print(f"--check: {out_path} is not valid JSON: {e}", file=sys.stderr)
        return 1

    if not isinstance(doc.get("description"), str) or not doc["description"]:
        errors.append("missing or empty 'description'")
    entries = doc.get("entries")
    if not isinstance(entries, list) or not entries:
        errors.append("'entries' must be a non-empty list")
        entries = []

    labels = set()
    for i, e in enumerate(entries):
        where = f"entries[{i}]"
        if not isinstance(e, dict):
            errors.append(f"{where}: not an object")
            continue
        for key in ("label", "date"):
            if not isinstance(e.get(key), str) or not e[key]:
                errors.append(f"{where}: missing or empty '{key}'")
        label = e.get("label")
        if isinstance(label, str):
            if label in labels:
                errors.append(f"{where}: duplicate label '{label}'")
            labels.add(label)
            where = f"entry '{label}'"
        report = e.get("report")
        if not isinstance(report, dict):
            errors.append(f"{where}: missing 'report' object")
            continue
        for key in ("gameday", "uptime_s", "admitted", "dispatched_batches"):
            if key not in report:
                errors.append(f"{where}: report lacks '{key}'")
        tenants = report.get("tenants")
        if not isinstance(tenants, list) or not tenants:
            errors.append(f"{where}: report 'tenants' must be a non-empty "
                          "list")
            continue
        for t in tenants:
            if not isinstance(t, dict):
                errors.append(f"{where}: tenant block is not an object")
                continue
            for key in SERVICE_TENANT_KEYS:
                if key not in t:
                    name = t.get("tenant", "?")
                    errors.append(f"{where}: tenant '{name}' lacks '{key}'")

    for msg in errors:
        print(f"--check: {out_path}: {msg}", file=sys.stderr)
    if not errors:
        print(f"--check: {out_path} OK ({len(entries)} entries; latest "
              f"'{entries[-1].get('label')}')", file=sys.stderr)
    return 1 if errors else 0


def check_trajectory(out_path: pathlib.Path, chaos: bool) -> int:
    errors = []
    try:
        doc = json.loads(out_path.read_text())
    except FileNotFoundError:
        print(f"--check: {out_path} does not exist", file=sys.stderr)
        return 1
    except json.JSONDecodeError as e:
        print(f"--check: {out_path} is not valid JSON: {e}", file=sys.stderr)
        return 1

    if not isinstance(doc.get("description"), str) or not doc["description"]:
        errors.append("missing or empty 'description'")
    entries = doc.get("entries")
    if not isinstance(entries, list) or not entries:
        errors.append("'entries' must be a non-empty list")
        entries = []

    labels = set()
    for i, e in enumerate(entries):
        where = f"entries[{i}]"
        if not isinstance(e, dict):
            errors.append(f"{where}: not an object")
            continue
        for key in ("label", "date", "host"):
            if not isinstance(e.get(key), str) or not e[key]:
                errors.append(f"{where}: missing or empty '{key}'")
        label = e.get("label")
        if isinstance(label, str):
            if label in labels:
                errors.append(f"{where}: duplicate label '{label}'")
            labels.add(label)
            where = f"entry '{label}'"
        if chaos:
            if not isinstance(e.get("resilience"), dict):
                errors.append(f"{where}: missing 'resilience' object")
            continue
        benchmarks = e.get("benchmarks")
        if not isinstance(benchmarks, dict) or not benchmarks:
            errors.append(f"{where}: missing or empty 'benchmarks' map")
            continue
        for name, b in benchmarks.items():
            if not isinstance(b, dict) or not isinstance(
                    b.get("cpu_ns"), (int, float)):
                errors.append(f"{where}: benchmark '{name}' lacks "
                              "numeric 'cpu_ns'")

    # Tracked-series presence is required of the *latest* entry only: older
    # entries legitimately predate newer series.
    if not chaos and entries and isinstance(entries[-1], dict):
        latest = entries[-1]
        names = latest.get("benchmarks") or {}
        for s in TRACKED:
            if not series_present(s, names):
                errors.append(f"latest entry '{latest.get('label')}' is "
                              f"missing tracked series '{s}'")

    for msg in errors:
        print(f"--check: {out_path}: {msg}", file=sys.stderr)
    if not errors:
        n = len(entries)
        print(f"--check: {out_path} OK ({n} entries; latest "
              f"'{entries[-1].get('label')}')", file=sys.stderr)
    return 1 if errors else 0


def run_bench(binary: str) -> dict:
    out = subprocess.run(
        [binary, "--benchmark_filter=" + "|".join(TRACKED),
         "--benchmark_format=json"],
        check=True, capture_output=True, text=True)
    return json.loads(out.stdout)


def extract(report: dict) -> dict:
    series = {}
    for b in report.get("benchmarks", []):
        if b.get("run_type") != "iteration":
            continue
        entry = {"cpu_ns": round(b["cpu_time"], 1)}
        if "items_per_second" in b:
            entry["items_per_second"] = round(b["items_per_second"])
        series[b["name"]] = entry
    return series


def run_chaos_bench(binary: str) -> dict:
    out = subprocess.run([binary, "--json"], check=True, capture_output=True,
                         text=True)
    return json.loads(out.stdout)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--binary", help="bench executable")
    ap.add_argument("--label",
                    help="entry label, e.g. 'seed' or 'pr1-fastpath'")
    ap.add_argument("--note", default="", help="free-form context for the run")
    ap.add_argument("--chaos", action="store_true",
                    help="record a bench_chaos_resilience sweep to "
                         "BENCH_chaos.json instead of kernel numbers")
    ap.add_argument("--service", action="store_true",
                    help="with --check: validate the BENCH_service.json SLO "
                         "trajectory written by `advectctl gameday --bench`")
    ap.add_argument("--check", action="store_true",
                    help="validate the trajectory file instead of running a "
                         "bench: schema + tracked-series presence in the "
                         "latest entry")
    ap.add_argument("--out", default=None,
                    help="trajectory file (default: BENCH_kernels.json / "
                         "BENCH_chaos.json next to this script's repo root)")
    args = ap.parse_args()

    default_name = ("BENCH_service.json" if args.service
                    else "BENCH_chaos.json" if args.chaos
                    else "BENCH_kernels.json")
    out_path = pathlib.Path(args.out) if args.out else (
        pathlib.Path(__file__).resolve().parent.parent / default_name)

    if args.service:
        if not args.check:
            ap.error("--service records through `advectctl gameday --bench`; "
                     "only --service --check is supported here")
        return check_service_trajectory(out_path)
    if args.check:
        return check_trajectory(out_path, args.chaos)
    if not args.binary or not args.label:
        ap.error("--binary and --label are required unless --check is given")

    entry = {
        "label": args.label,
        "date": datetime.date.today().isoformat(),
        "host": platform.node(),
    }
    if args.chaos:
        entry["resilience"] = run_chaos_bench(args.binary)
        description = ("Modelled jitter-resilience trajectory of "
                       "bench_chaos_resilience (docs/CHAOS.md): GF "
                       "degradation and absorbed fraction per implementation "
                       "under the seeded fault scenarios. Entries are "
                       "appended per PR by tools/record_bench.py --chaos.")
    else:
        report = run_bench(args.binary)
        ctx = report.get("context", {})
        entry["num_cpus"] = ctx.get("num_cpus")
        entry["mhz_per_cpu"] = ctx.get("mhz_per_cpu")
        entry["benchmarks"] = extract(report)
        description = ("Performance trajectory of bench_kernels; see "
                       "docs/PERF.md. Entries are appended per PR by "
                       "tools/record_bench.py.")
    if args.note:
        entry["note"] = args.note

    doc = {"description": description, "entries": []}
    if out_path.exists():
        doc = json.loads(out_path.read_text())
    doc["entries"] = [e for e in doc["entries"] if e["label"] != args.label]
    doc["entries"].append(entry)
    out_path.write_text(json.dumps(doc, indent=2) + "\n")
    print(f"recorded '{args.label}' -> {out_path}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
