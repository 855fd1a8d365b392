#!/usr/bin/env bash
# Runs each workload RUNS times, each with another seed, and prints every
# end-to-end metric's median, quartiles and spread against its bound in
# BENCHMARK.json.  With a second result directory it also checks that the
# new medians are not worse than the earlier ones by more than the bound.
#
#   bash perfbench/spread.sh [-n RUNS] [-o OUTDIR] [-a EARLIER_OUTDIR] [WORKLOAD...]
#
# Run it from the repository root; OUTDIR defaults to .bench_build/spread.
set -euo pipefail

runs=10 out=.bench_build/spread against=
while getopts n:o:a: opt; do
	case $opt in
	n) runs=$OPTARG ;;
	o) out=$OPTARG ;;
	a) against=$OPTARG ;;
	*) exit 2 ;;
	esac
done
shift $((OPTIND - 1))
workloads=("$@")
if [[ ${#workloads[@]} -eq 0 ]]; then
	workloads=(paper-sweep cold-requests warm-hits)
fi
seconds=$(sed -n 's/.*"run_seconds": *\([0-9]*\).*/\1/p' BENCHMARK.json)

# Seeds in the outer loop: a drift in the host's speed then touches every
# workload a little rather than a few consecutive runs of one.
for ((seed = 1; seed <= runs; seed++)); do
	for w in "${workloads[@]}"; do
		mkdir -p "$out/$w"
		bash perfbench/run.sh --workload "$w" --seed "$seed" --seconds "$seconds" --trace 0 \
			>"$out/$w/$seed.json" 2>"$out/$w/$seed.log"
		echo "$w seed $seed: $(tail -c 200 "$out/$w/$seed.json")" >&2
	done
done
exec "${CARGO_TARGET_DIR:-.bench_build}/bin/perfbench" -summarize "$out" ${against:+-against "$against"}
