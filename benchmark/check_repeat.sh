#!/usr/bin/env bash
# Do two sets of runs of the same code agree?
#
#   benchmark/check_repeat.sh [seed_a] [seed_b] [seconds]
#
# Runs all four workloads, untraced and traced, twice with seed_a and once
# with seed_b; prints every metric of the three sets side by side; fails if
# an end-to-end metric differs between the two seed_a sets by more than its
# bound in BENCHMARK.json; and says whether the numbers that must repeat
# exactly (accuracy, exact counters) did. About 25 minutes at the default
# 20 seconds per run.
set -euo pipefail
here="$(cd "$(dirname "$0")" && pwd)"
seed_a="${1:-1}"
seed_b="${2:-2}"
seconds="${3:-20}"
out="$here/out/repeat"
mkdir -p "$out"

for set in a1 a2 b; do
  seed="$seed_a"
  [ "$set" = b ] && seed="$seed_b"
  for workload in warm_zoo cold_nas mixed_observe offline_train; do
    for trace in 0 1; do
      echo "set $set: $workload seed=$seed trace=$trace" >&2
      bash "$here/run.sh" --workload "$workload" --seed "$seed" --seconds "$seconds" --trace "$trace" \
        | tail -n 1 > "$out/$set.$workload.$trace.json"
    done
  done
done

python3 - "$here/../BENCHMARK.json" "$out" <<'EOF'
import json, sys
spec = json.load(open(sys.argv[1]))
out = sys.argv[2]
bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
# Seed-determined: identical in the two same-seed sets, or something is not deterministic.
exact = ["mean_rel_err", "err_ratio_vs_ernest", "embeddings.ghn_embeds", "embeddings.evictions",
         "tensor.gemm_calls_per_embed", "tensor.gemm_flops_per_embed", "observe.drift_events",
         "ernest.mean_rel_err"]
bad = []
for w in (x["name"] for x in spec["workloads"]):
    print(f"\n== {w}\n{'metric':34} {'set a1':>14} {'set a2':>14} {'set b':>14}  a1 vs a2")
    for trace in "01":
        runs = [json.load(open(f"{out}/{s}.{w}.{trace}.json")) for s in ("a1", "a2", "b")]
        for r in runs:
            if not r["correct"]:
                bad.append(f"{w}: a run was not correct")
        for name in runs[0]["metrics"]:
            a1, a2, b = (r["metrics"][name]["value"] for r in runs)
            note = ""
            if name in exact:
                note = "identical" if a1 == a2 else "NOT identical"
                if a1 != a2:
                    bad.append(f"{w} {name}: {a1} vs {a2} with one seed")
            elif name in bounds and a1:
                bound = bounds[name]
                change = a2 / a1 - 1
                note = f"{change:+.1%} (bound {bound:.0%})"
                if abs(change) > bound:
                    note += " OVER"
                    bad.append(f"{w} {name}: {note}")
            print(f"{name:34} {a1:14.6g} {a2:14.6g} {b:14.6g}  {note}")
print()
for line in bad:
    print("FAIL", line)
sys.exit(1 if bad else 0)
EOF
