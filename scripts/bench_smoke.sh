#!/usr/bin/env bash
# Smoke-runs one figure bench at reduced scale and emits the stable
# machine-readable bench artifact (BENCH_seed.json by default). CI uploads
# the artifact so perf regressions can be diffed across commits; the JSON
# schema is documented on ksp::bench::PrintStatsRow in
# bench/bench_common.h.
#
# Usage: scripts/bench_smoke.sh [out.json] [micro_out.json]
#        micro_out.json (default BENCH_micro.json) receives the
#        micro-component run below.
# Env:   BUILD_DIR (default: build), KSP_SCALE, KSP_QUERIES,
#        KSP_BENCH (default: bench_fig9_large_looseness)
set -euo pipefail

BUILD_DIR="${BUILD_DIR:-build}"
OUT="${1:-BENCH_seed.json}"
BENCH="${KSP_BENCH:-bench_fig9_large_looseness}"

if [[ ! -x "${BUILD_DIR}/bench/${BENCH}" ]]; then
  echo "error: ${BUILD_DIR}/bench/${BENCH} not built" >&2
  echo "build first: cmake -B ${BUILD_DIR} -S . && cmake --build ${BUILD_DIR} -j" >&2
  exit 1
fi

KSP_SCALE="${KSP_SCALE:-0.1}" KSP_QUERIES="${KSP_QUERIES:-5}" \
  "${BUILD_DIR}/bench/${BENCH}" \
  --warmup=1 --repeat=3 \
  --json-out="${OUT}"

# The artifact must parse and carry at least one row.
python3 - "${OUT}" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
assert doc["schema_version"] == 1, doc
assert doc["rows"], "bench emitted no rows"
# Run fingerprint: where and from which commit the rows were measured
# (git_sha is "" outside a git checkout).
for key in ("host", "nproc", "git_sha"):
    assert key in doc["env"], f"env lacks {key}: {doc['env']}"
assert doc["env"]["nproc"] >= 1, doc["env"]
print(f"bench smoke OK: {doc['bench']}, {len(doc['rows'])} rows")
EOF

# Disk-backend smoke: the same bench must also run out-of-core (DESIGN.md
# §10) under a small buffer pool, and its rows must show page traffic.
DISK_OUT="$(mktemp /tmp/ksp_bench_disk_smoke.XXXXXX.json)"
trap 'rm -f "${DISK_OUT}"' EXIT
KSP_SCALE="${KSP_SCALE:-0.1}" KSP_QUERIES="${KSP_QUERIES:-5}" \
  "${BUILD_DIR}/bench/${BENCH}" \
  --backend=disk --bufferpool-budget=1048576 \
  --json-out="${DISK_OUT}"

python3 - "${DISK_OUT}" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
assert doc["env"]["backend"] == "disk", doc["env"]
rows = doc["rows"]
assert rows, "disk bench emitted no rows"
assert all(r["backend"] == "disk" for r in rows), rows
fetches = sum(r["bufferpool"]["hits"] + r["bufferpool"]["misses"]
              for r in rows)
assert fetches > 0, "disk backend reported no buffer-pool traffic"
print(f"disk-backend smoke OK: {len(rows)} rows, {fetches} page fetches")
EOF

# Sharded scatter-gather smoke (DESIGN.md §12): the fig5-style workload
# over K ∈ {1,2,4,8} STR shards. The K=4 rows must show shard-level
# pruning actually firing — the whole point of mindist-ordered dispatch
# under the shared θ — and each shard's α index must cover only its own
# tile, so the α bytes summed over the shards stay near K=1's at every K.
# An α posting is a u32 entry plus a u8 distance; the per-term offsets
# add a little, so under 6 bytes a posting at every K means no padded
# 8-byte posting layout has come back.
SHARD_OUT="$(mktemp /tmp/ksp_bench_shard_smoke.XXXXXX.json)"
trap 'rm -f "${DISK_OUT}" "${SHARD_OUT}"' EXIT
KSP_SCALE="${KSP_SCALE:-0.1}" KSP_QUERIES="${KSP_QUERIES:-5}" \
  "${BUILD_DIR}/bench/bench_sharded_scatter_gather" \
  --json-out="${SHARD_OUT}"

python3 - "${SHARD_OUT}" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
rows = doc["rows"]
assert rows, "sharded bench emitted no rows"
assert all("shard" in r for r in rows), rows
k4 = [r for r in rows if r["shard"]["count"] == 4]
assert k4, "no K=4 rows"
pruned = sum(r["shard"]["shards_pruned"] for r in k4)
assert pruned >= 1, f"K=4 pruned no shards: {k4}"
alpha = {r["shard"]["count"]: r["shard"]["alpha_bytes"] for r in rows}
for k, size in sorted(alpha.items()):
    assert size <= 1.25 * alpha[1], \
        f"K={k} shards hold {size} alpha bytes, over 1.25x K=1's {alpha[1]}"
ratios = ", ".join(f"K={k} {size / alpha[1]:.2f}x"
                   for k, size in sorted(alpha.items()))
per_posting = {r["shard"]["count"]:
               r["shard"]["alpha_bytes"] / r["shard"]["alpha_postings"]
               for r in rows}
for k, b in sorted(per_posting.items()):
    assert b < 6, f"K={k} alpha index spends {b:.2f} bytes per posting"
costs = ", ".join(f"K={k} {b:.2f}" for k, b in sorted(per_posting.items()))
print(f"sharded smoke OK: {len(rows)} rows, K=4 pruned {pruned} shards, "
      f"alpha bytes {ratios}, bytes/posting {costs}")
EOF

# Micro-component smoke (DESIGN.md §13): one traced run of the hot-path
# bench, uploaded as BENCH_micro.json. It only has to parse and carry
# phase-exclusive time; cross-commit hot-path regressions are judged by
# kspbench's mem_mix cpu_ms_per_query against the parent commit.
MICRO_OUT="${2:-BENCH_micro.json}"
KSP_SCALE="${KSP_SCALE:-0.1}" KSP_QUERIES="${KSP_QUERIES:-5}" \
  "${BUILD_DIR}/bench/bench_micro_components" \
  --warmup=1 --repeat=3 \
  --json-out="${MICRO_OUT}"

python3 - "${MICRO_OUT}" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
assert doc["schema_version"] == 1, doc
rows = doc["rows"]
assert rows, "micro-component bench emitted no rows"
hot = sum(r["phase_exclusive_us"]["tqsp_compute"] +
          r["phase_exclusive_us"]["bfs_expand"] for r in rows)
assert hot > 0, "micro-component run recorded no hot-phase time"
print(f"micro-component smoke OK: {len(rows)} rows, tqsp+bfs {hot:.0f} us")
EOF
