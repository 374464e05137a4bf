#!/usr/bin/env python3
"""Gate the tracked end-to-end benchmarks (bench/bench_end_to_end.cc).

Reads a Google-Benchmark JSON file from a fresh run and checks the
skip_ahead / percycle speedup RATIO of every BM_EndToEnd pair (each
pair's absolute sim_cycles_per_sec is printed beside it, ungated). Ratios
are what the tentpole promises and — unlike absolute rates — survive a
change of CI hardware, so the gates are:

  1. GapHeavy ratio >= 5.0 (the DESIGN.md sec. 15 acceptance bar).
  2. With a baseline file (the committed BENCH_e2e.json): no pair's
     ratio may regress more than 10% below the baseline ratio.

Updating the baseline: when a change legitimately moves the numbers,
regenerate it in a Release build and commit it with that change:

    ./build/bench/bench_end_to_end --benchmark_out=BENCH_e2e.json \
        --benchmark_out_format=json

Usage: check_bench_e2e.py CURRENT.json [BASELINE.json]
"""

import json
import re
import sys

PAIR_RE = re.compile(
    r"^BM_EndToEnd_(?P<config>\w+?)_(?P<mode>SkipAhead|Percycle)"
    r"(?:_(?P<agg>mean|median|stddev|cv))?$")

GAP_HEAVY_MIN_RATIO = 5.0
MAX_RATIO_REGRESSION = 0.10


def load_rates(path):
    """Map config name -> (SkipAhead, Percycle) sim_cycles_per_sec.

    Prefers the `median` aggregate when the run used repetitions;
    falls back to the plain (single-run) entry.
    """
    with open(path) as f:
        doc = json.load(f)
    rates = {}
    for bm in doc.get("benchmarks", []):
        m = PAIR_RE.match(bm.get("name", ""))
        if not m:
            continue
        agg = m.group("agg")
        if agg not in (None, "median"):
            continue
        rate = bm.get("sim_cycles_per_sec")
        if rate is None:
            continue
        slot = rates.setdefault(m.group("config"), {})
        # A median aggregate wins over the plain entry.
        if agg == "median" or m.group("mode") not in slot:
            slot[m.group("mode")] = float(rate)
    return {
        cfg: (modes["SkipAhead"], modes["Percycle"])
        for cfg, modes in rates.items()
        if "SkipAhead" in modes and "Percycle" in modes
        and modes["Percycle"] > 0.0
    }


def ratio(rates):
    """The skip_ahead / percycle speedup of one pair."""
    return rates[0] / rates[1]


def main(argv):
    if len(argv) not in (2, 3):
        print(__doc__, file=sys.stderr)
        return 2

    current = load_rates(argv[1])
    baseline = load_rates(argv[2]) if len(argv) == 3 else {}
    if not current:
        print(f"error: no BM_EndToEnd pairs found in {argv[1]}",
              file=sys.stderr)
        return 2

    # The absolute rates (simulated cycles per host second) are shown
    # for reference only; the gates read the ratios.
    failed = False
    print(f"{'pair':<18} {'skip_ahead':>10} {'percycle':>10} "
          f"{'ratio':>7} {'baseline':>9}  verdict")
    for cfg in sorted(current):
        skip, percycle = current[cfg]
        r = ratio(current[cfg])
        base = ratio(baseline[cfg]) if cfg in baseline else None
        verdicts = []
        if cfg == "GapHeavy" and r < GAP_HEAVY_MIN_RATIO:
            verdicts.append(f"BELOW {GAP_HEAVY_MIN_RATIO}x bar")
        if base is not None and r < base * (1 - MAX_RATIO_REGRESSION):
            verdicts.append(f">{MAX_RATIO_REGRESSION:.0%} regression")
        failed = failed or bool(verdicts)
        base_str = f"{base:8.2f}x" if base is not None else "        -"
        print(f"{cfg:<18} {skip:10.3e} {percycle:10.3e} {r:6.2f}x "
              f"{base_str}  {'; '.join(verdicts) or 'ok'}")

    for cfg in sorted(set(baseline) - set(current)):
        print(f"{cfg:<18} missing from current run  FAIL")
        failed = True

    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
