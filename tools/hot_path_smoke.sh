#!/usr/bin/env bash
# Release-mode perf smoke for the ingest hot path (ISSUE 10's guard against
# the overhaul's wins quietly regressing):
#
#   1. runs the CRC and sync-encode microbenchmarks from bench_micro and
#      asserts the slice-by-16 (or hardware) CRC32 is at least 4x the
#      reference bytewise implementation on 4 KiB buffers — an IN-RUN ratio,
#      so CI-runner speed differences cancel out, and
#   2. fails when the warm-cache sync-response encode exceeds 2x the
#      checked-in reference time (tools/hot_path_reference.txt), with a
#      floor so scheduler jitter on a sub-microsecond reference cannot
#      produce false failures, and
#   3. fails when a 6-record upload dispatch (decode, store, journal
#      entries, reply) exceeds 2x its checked-in reference time.
#
# Usage: tools/hot_path_smoke.sh [BUILD_DIR]   (default: build)
set -euo pipefail

build_dir="${1:-build}"
ref_file="$(dirname "$0")/hot_path_reference.txt"
json="$(mktemp)"
trap 'rm -f "$json"' EXIT

# Median of 3 repetitions: a single repetition occasionally catches a
# scheduler hiccup on one side of the ratio and flakes the gate.
"$build_dir/bench/bench_micro" \
  --benchmark_filter='^BM_Crc32(Bytewise)?/4096$|^BM_SyncResponseEncodeInto/1$|^BM_UploadDispatch/' \
  --benchmark_repetitions=3 --benchmark_report_aggregates_only \
  --benchmark_format=json >"$json"

# Pull a field out of the benchmark whose "name" most recently matched.
extract() { # extract <benchmark-name> <field>
  awk -v want="$1" -v field="$2" '
    /"name":/      { cur = $0; sub(/.*"name": "/, "", cur); sub(/".*/, "", cur) }
    $0 ~ "\"" field "\":" && cur == want {
      v = $0; sub(/.*: /, "", v); sub(/,.*/, "", v); print v; exit
    }' "$json"
}

# The reference time (ns) recorded for a benchmark name.
reference() { # reference <benchmark-name>
  awk -v want="$1" '!/^#/ && $1 == want { print $2; exit }' "$ref_file"
}

bytewise_bps=$(extract "BM_Crc32Bytewise/4096_median" "bytes_per_second")
crc_bps=$(extract "BM_Crc32/4096_median" "bytes_per_second")
encode_ns=$(extract "BM_SyncResponseEncodeInto/1_median" "real_time")
ref_ns=$(reference "BM_SyncResponseEncodeInto/1")
upload_ns=$(extract "BM_UploadDispatch/iterations:4096_median" "real_time")
upload_ref_ns=$(reference "BM_UploadDispatch/iterations:4096")
if [ -z "$bytewise_bps" ] || [ -z "$crc_bps" ] || [ -z "$encode_ns" ] || [ -z "$ref_ns" ] ||
   [ -z "$upload_ns" ] || [ -z "$upload_ref_ns" ]; then
  echo "hot_path_smoke: failed to extract crc ('$bytewise_bps'/'$crc_bps')," \
       "encode ('$encode_ns'), upload ('$upload_ns') or references" \
       "('$ref_ns'/'$upload_ref_ns')" >&2
  exit 2
fi

awk -v bytewise="$bytewise_bps" -v crc="$crc_bps" \
    -v encode="$encode_ns" -v ref="$ref_ns" \
    -v upload="$upload_ns" -v upload_ref="$upload_ref_ns" 'BEGIN {
  ratio = crc / bytewise
  printf "hot_path_smoke: crc32 %.2f GB/s vs bytewise %.2f GB/s (%.1fx)\n",
         crc / 1e9, bytewise / 1e9, ratio
  if (ratio < 4.0) {
    printf "hot_path_smoke: FAIL - crc32 speedup below 4x over bytewise\n"
    exit 1
  }
  budget = 2.0 * ref
  floor = 2000           # ns; absorbs timer noise on a sub-microsecond ref
  if (budget < floor) budget = floor
  printf "hot_path_smoke: warm encode %.0f ns, reference %.0f ns, budget %.0f ns\n",
         encode, ref, budget
  if (encode > budget) {
    printf "hot_path_smoke: FAIL - >2x regression on warm sync-response encode\n"
    exit 1
  }
  printf "hot_path_smoke: upload dispatch %.0f ns, reference %.0f ns, budget %.0f ns\n",
         upload, upload_ref, 2.0 * upload_ref
  if (upload > 2.0 * upload_ref) {
    printf "hot_path_smoke: FAIL - >2x regression on 6-record upload dispatch\n"
    exit 1
  }
  printf "hot_path_smoke: ok\n"
}'
