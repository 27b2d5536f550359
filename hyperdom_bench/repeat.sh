#!/usr/bin/env bash
# Repeatability runner for the repository benchmark. Runs ROUNDS rounds of
# every workload in BENCHMARK.json (workload order reversed on even rounds,
# seed = round, a fresh process per run), then prints for each workload and
# end-to-end metric the median, the quartiles as statistics.quantiles(values,
# n=4) gives them, the interquartile spread as a share of the median against
# the metric's bound, the max/min spread, and by how much the median of the
# second half of the rounds is worse than the first half's.
#
#   hyperdom_bench/repeat.sh [ROUNDS] [OUT.json]
#
# Run from the repository root. ROUNDS defaults to 5. OUT.json, if given,
# receives the same table as JSON. Raw results and build logs go to
# ${CARGO_TARGET_DIR:-.bench_build}/repeat.{jsonl,log}.
set -euo pipefail

rounds=${1:-5}
out=${2:-}
dir=${CARGO_TARGET_DIR:-.bench_build}
mkdir -p "$dir"
raw="$dir/repeat.jsonl"
log="$dir/repeat.log"
: > "$raw"
: > "$log"

mapfile -t workloads < <(python3 -c '
import json
for w in json.load(open("BENCHMARK.json"))["workloads"]:
    print(w["name"])')

for ((r = 1; r <= rounds; r++)); do
  order=("${workloads[@]}")
  if ((r % 2 == 0)); then
    order=()
    for ((i = ${#workloads[@]} - 1; i >= 0; i--)); do
      order+=("${workloads[i]}")
    done
  fi
  for w in "${order[@]}"; do
    line=$(python3 hyperdom_bench/run.py --workload "$w" --seed "$r" \
      --trace 0 2>>"$log" | tail -n 1) || true
    echo "round $r $w: ${line:0:160}" >&2
    printf '{"workload": "%s", "seed": %d, "result": %s}\n' \
      "$w" "$r" "${line:-null}" >>"$raw"
  done
done

python3 - "$raw" "$out" "$rounds" <<'EOF'
import json
import os
import statistics
import sys

raw, out, rounds = sys.argv[1], sys.argv[2], int(sys.argv[3])
spec = json.load(open("BENCHMARK.json"))
runs = [json.loads(line) for line in open(raw)]
table = {}
bad = 0
print(f"{'workload':14} {'metric':14} {'median':>12} {'q1':>12} {'q3':>12}"
      f" {'iqr/med':>8} {'bound':>6} {'max/min':>8} {'halves':>7}")
for w in (w["name"] for w in spec["workloads"]):
    results = [r["result"] for r in runs if r["workload"] == w]
    ok = [r for r in results if r and r["correct"]]
    bad += len(results) - len(ok)
    table[w] = {}
    for m in spec["end_to_end"]:
        values = [r["metrics"][m["name"]]["value"] for r in ok]
        if len(values) < 2:
            continue
        q1, _, q3 = statistics.quantiles(values, n=4)
        median = statistics.median(values)
        iqr = (q3 - q1) / median if median else float("inf")
        spread = max(values) / min(values) if min(values) else float("inf")
        # Second half of the rounds against the first, as a share of the
        # first half's median; positive is worse.
        first = statistics.median(values[:len(values) // 2])
        second = statistics.median(values[len(values) // 2:])
        sign = 1 if m["better"] == "lower" else -1
        halves = sign * (second - first) / first if first else 0.0
        table[w][m["name"]] = {
            "unit": m["unit"], "median": median, "q1": q1, "q3": q3,
            "iqr_share": iqr, "bound": m["bound"], "min": min(values),
            "max": max(values), "halves_worse_by": halves,
            "runs": len(values)}
        flag = "" if iqr <= m["bound"] / 3 else (
            "  over bound/3" if iqr <= m["bound"] else "  OVER BOUND")
        if halves > m["bound"]:
            flag += "  HALVES OVER BOUND"
        print(f"{w:14} {m['name']:14} {median:12.6g} {q1:12.6g} {q3:12.6g}"
              f" {iqr:8.3f} {m['bound']:6.2f} {spread:8.3f} {halves:7.3f}"
              f"{flag}")
print(f"{len(runs)} runs, {bad} failed or incorrect")
if out:
    with open(out, "w") as f:
        json.dump({"rounds": rounds, "run_seconds": spec["run_seconds"],
                   "cpus": os.cpu_count(), "failed_runs": bad,
                   "workloads": table}, f, indent=2)
        f.write("\n")
sys.exit(1 if bad else 0)
EOF
