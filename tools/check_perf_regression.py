#!/usr/bin/env python3
"""Perf regression gate over the annotated kernel benchmark JSON.

Compares fresh BENCH_kernels.json run(s) against the committed baseline
for the same machine (bench/baselines/<fingerprint>.json, where the
fingerprint is the hardware hash bench_micro embeds in the "machine"
block). A kernel whose ns_per_amp regressed by more than the threshold
(default 15%) fails the check — but only when the fingerprints match:
on unknown hardware the comparison is advisory (reported, exit 0),
because ns/amp is not portable across machines. The roofline inputs
(bytes_per_amp / flops_per_amp) come from a static cost model and ARE
portable, so a drift in those is an error on any machine: the kernel's
traffic shape changed without the baseline being refreshed.

--current accepts SEVERAL run files; they are merged by taking, per
kernel, the entry with the minimum ns_per_amp across runs. The minimum
is the noise-robust statistic for timing gates: interference and CPU
steal only ever make a run slower, so min-of-N converges on the true
quiet-machine time while a single sample can read tens of percent high
on a shared runner. CI runs the smoke benchmark three times and gates
on the merged minimum; capture baselines the same way.

Usage:
    check_perf_regression.py [--current BENCH.json [BENCH2.json ...]]
                             [--baselines-dir bench/baselines]
                             [--threshold 0.15]
                             [--refresh]   # (re)write the baseline
                             [--self-test] # verify the gate can fail

--refresh writes the merged current run(s) to
bench/baselines/<fingerprint>.json (commit the result; recipe in
docs/benchmarks.md). --self-test perturbs a copy of the current run's
ns_per_amp in memory by more than the threshold and asserts the gate
reports a regression against it — run in CI so the gate's failure path
is exercised on every machine, even where fingerprints never match a
committed baseline.

Exit codes: 0 ok/advisory, 1 regression (or self-test failure),
2 usage/input error.
"""

import argparse
import copy
import json
import os
import sys


def load(path):
    with open(path) as fh:
        return json.load(fh)


def kernel_entries(doc):
    """name -> entry for every benchmark carrying ns_per_amp."""
    out = {}
    for bench in doc.get("benchmarks", []):
        if isinstance(bench, dict) and "ns_per_amp" in bench:
            out[str(bench.get("name"))] = bench
    return out


def merge_min(docs):
    """Merge N runs into one doc, keeping per kernel the entry with the
    minimum ns_per_amp. Non-kernel entries and the machine block come
    from the first run. All runs must share one fingerprint."""
    merged = copy.deepcopy(docs[0])
    fingerprints = {d.get("machine", {}).get("fingerprint") for d in docs}
    if len(fingerprints) != 1:
        raise ValueError(
            f"runs span multiple fingerprints: {sorted(map(str, fingerprints))}")
    best = {}
    for doc in docs:
        for name, entry in kernel_entries(doc).items():
            if name not in best or (float(entry["ns_per_amp"])
                                    < float(best[name]["ns_per_amp"])):
                best[name] = entry
    merged["benchmarks"] = [
        best.get(str(b.get("name")), b) if isinstance(b, dict) else b
        for b in merged.get("benchmarks", [])]
    return merged


def compare(current, baseline, threshold):
    """Return (regressions, model_drifts, improvements, missing,
    compared); missing lists baseline kernels absent from the current
    run, which are therefore not compared."""
    cur = kernel_entries(current)
    base = kernel_entries(baseline)
    missing = sorted(set(base) - set(cur))
    regressions = []
    model_drifts = []
    improvements = []
    compared = 0
    for name in sorted(set(cur) & set(base)):
        c, b = cur[name], base[name]
        base_ns = float(b["ns_per_amp"])
        cur_ns = float(c["ns_per_amp"])
        if base_ns <= 0.0:
            continue
        compared += 1
        ratio = cur_ns / base_ns
        if ratio > 1.0 + threshold:
            regressions.append((name, base_ns, cur_ns, ratio))
        elif ratio < 1.0 - threshold:
            improvements.append((name, base_ns, cur_ns, ratio))
        for key in ("bytes_per_amp", "flops_per_amp"):
            if key in c and key in b:
                cv, bv = float(c[key]), float(b[key])
                if abs(cv - bv) > 1e-9 * max(1.0, abs(bv)):
                    model_drifts.append((name, key, bv, cv))
    return regressions, model_drifts, improvements, missing, compared


def report(tag, regressions, model_drifts, improvements, missing,
           compared):
    for name, base_ns, cur_ns, ratio in regressions:
        print(f"check_perf_regression: {tag} REGRESSION {name}: "
              f"{base_ns:.4f} -> {cur_ns:.4f} ns/amp "
              f"({100.0 * (ratio - 1.0):+.1f}%)", file=sys.stderr)
    for name, key, bv, cv in model_drifts:
        print(f"check_perf_regression: {tag} MODEL DRIFT {name}.{key}: "
              f"{bv} -> {cv} (cost model changed; refresh the baseline)",
              file=sys.stderr)
    for name, base_ns, cur_ns, ratio in improvements:
        print(f"check_perf_regression: {tag} improvement {name}: "
              f"{base_ns:.4f} -> {cur_ns:.4f} ns/amp "
              f"({100.0 * (ratio - 1.0):+.1f}%)")
    for name in missing:
        print(f"check_perf_regression: {tag} not compared {name}: "
              "in the baseline but missing from the current run")
    print(f"check_perf_regression: {tag} compared {compared} kernel(s), "
          f"{len(regressions)} regression(s), {len(model_drifts)} "
          f"model drift(s), {len(improvements)} improvement(s), "
          f"{len(missing)} baseline kernel(s) missing")


def self_test(current, threshold):
    """Perturb a copy of the current run in memory and assert the gate
    trips. The rigged baseline is the current run with every ns_per_amp
    divided by (1 + 2*threshold), so each comparison lands at exactly
    +2*threshold regardless of how the real baseline relates to the
    current numbers — deterministic, and independent of whether a
    committed baseline even exists."""
    rigged = copy.deepcopy(current)
    if not kernel_entries(rigged):
        print("check_perf_regression: self-test FAILED — no kernel "
              "entries to perturb", file=sys.stderr)
        return 1
    for entry in kernel_entries(rigged).values():
        entry["ns_per_amp"] = float(entry["ns_per_amp"]) \
            / (1.0 + 2.0 * threshold)
    regressions, _, _, _, compared = compare(current, rigged, threshold)
    if len(regressions) != compared or compared == 0:
        print(f"check_perf_regression: self-test FAILED — expected "
              f"{compared} injected regression(s), detected "
              f"{len(regressions)}", file=sys.stderr)
        return 1
    print(f"check_perf_regression: self-test ok (injected regression "
          f"detected on {compared}/{compared} kernel(s))")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--current", nargs="+",
                        default=["BENCH_kernels.json"])
    parser.add_argument("--baselines-dir", default="bench/baselines")
    parser.add_argument("--threshold", type=float, default=0.15)
    parser.add_argument("--refresh", action="store_true")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()

    docs = []
    for path in args.current:
        try:
            doc = load(path)
        except (OSError, json.JSONDecodeError) as exc:
            print(f"check_perf_regression: cannot read {path}: {exc}",
                  file=sys.stderr)
            return 2
        if not isinstance(doc.get("machine"), dict) \
                or not doc["machine"].get("fingerprint"):
            print(f"check_perf_regression: {path} has no machine block "
                  "— run bench_micro so the roofline annotation runs",
                  file=sys.stderr)
            return 2
        docs.append(doc)
    try:
        current = merge_min(docs)
    except ValueError as exc:
        print(f"check_perf_regression: {exc}", file=sys.stderr)
        return 2
    if len(docs) > 1:
        print(f"check_perf_regression: merged {len(docs)} run(s), "
              "gating on per-kernel minimum ns_per_amp")
    machine = current["machine"]
    fingerprint = machine["fingerprint"]
    baseline_path = os.path.join(args.baselines_dir, f"{fingerprint}.json")

    if args.refresh:
        os.makedirs(args.baselines_dir, exist_ok=True)
        with open(baseline_path, "w") as fh:
            json.dump(current, fh, indent=2)
            fh.write("\n")
        print(f"check_perf_regression: baseline refreshed at "
              f"{baseline_path}")
        return 0

    matched = os.path.exists(baseline_path)
    if matched:
        baseline = load(baseline_path)
        tag = f"[{fingerprint}]"
    else:
        # Advisory mode: compare against any committed baseline so the
        # log still shows the trend, but never fail on foreign hardware.
        candidates = sorted(
            f for f in os.listdir(args.baselines_dir)
            if f.endswith(".json")) if os.path.isdir(
                args.baselines_dir) else []
        if not candidates:
            print(f"check_perf_regression: no baseline for {fingerprint} "
                  "and none committed; nothing to compare")
            return self_test_only(args, current)
        baseline = load(os.path.join(args.baselines_dir, candidates[0]))
        tag = (f"[advisory: {fingerprint} vs "
               f"{os.path.splitext(candidates[0])[0]}]")

    regressions, model_drifts, improvements, missing, compared = compare(
        current, baseline, args.threshold)
    report(tag, regressions, model_drifts, improvements, missing, compared)

    if args.self_test:
        rc = self_test(current, args.threshold)
        if rc != 0:
            return rc

    # Model drifts are machine-independent facts: gate everywhere.
    if model_drifts:
        return 1
    if matched and regressions:
        return 1
    if not matched and regressions:
        print("check_perf_regression: fingerprint mismatch — "
              "regressions above are advisory only")
    return 0


def self_test_only(args, current):
    if not args.self_test:
        return 0
    return self_test(current, args.threshold)


if __name__ == "__main__":
    sys.exit(main())
