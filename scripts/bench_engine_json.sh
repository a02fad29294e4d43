#!/usr/bin/env bash
# bench_engine_json.sh <bench.txt> <BENCH_engine.json>
#
# Extracts the engine-substrate benchmarks from `go test -bench .
# -benchmem` output into a JSON artefact: the throughput family
# (BenchmarkEngineThroughput/cores=N streaming across the core-count
# axis, plus ...Retain) with events/sec, B/op and allocs/op, the
# BenchmarkEngineScaling/tasks=N task-count
# series, the BenchmarkEngineFastForward/horizon=H/mode=full|ff pairs
# with their derived fastforward_speedup rows (full ns/op over ff
# ns/op per horizon), the BenchmarkEngineOpenArrivals source-driven
# release row, the derived global_dispatch rows — per core count
# M > 1, the best ns/event of BenchmarkEngineThroughput/cores=M over
# the best at cores=1, the price of feeding M cores from one shared
# ready queue — and the derived sub-linearity ratio — per-event
# cost at the largest size over the smallest, next to the task-count
# ratio it should stay far below. Fails when any benchmark family is
# missing so CI notices a silently skipped run, and when any
# events_per_sec field is absent — that field feeds the perf gate
# (scripts/bench_gate.sh), and a silent "null" there would let a
# benchmark rename or a dropped ReportMetric disable the gate without
# anyone noticing.
set -euo pipefail

in=${1:-bench.txt}
out=${2:-BENCH_engine.json}
# The gate's focused run (make bench-gate) measures only the
# throughput pair; REQUIRE_SCALING=0 / REQUIRE_FASTFORWARD=0 let it
# use this extractor without the scaling and fast-forward families.
# The full bench-json artifact keeps the default (all mandatory).
require_scaling=${REQUIRE_SCALING:-1}
require_fastforward=${REQUIRE_FASTFORWARD:-1}
require_openarrivals=${REQUIRE_OPENARRIVALS:-1}

awk -v require_scaling="$require_scaling" -v require_fastforward="$require_fastforward" -v require_openarrivals="$require_openarrivals" '
function val(k) { return (k in v) ? v[k] : "null" }
# Gate-feeding fields are mandatory: record the miss and fail in END
# (after the full report, so one run surfaces every missing field).
function must(k) {
    if (!(k in v)) {
        printf "bench_engine_json: %s is missing %s\n", name, k > "/dev/stderr"
        missing = 1
        return "null"
    }
    return v[k]
}
BEGIN { printf "[\n"; sep = "" }
/^BenchmarkEngineThroughput(Retain)?-?[0-9]*[ \t]/ || /^BenchmarkEngineThroughput\/cores=/ || /^BenchmarkEngineScaling\// || /^BenchmarkEngineFastForward\// || /^BenchmarkEngineOpenArrivals-?[0-9]*[ \t]/ {
    name = $1; sub(/-[0-9]+$/, "", name)
    delete v
    for (i = 3; i + 1 <= NF; i += 2) v[$(i+1)] = $i
    if (name ~ /^BenchmarkEngineFastForward\//) {
        h = name; sub(/^BenchmarkEngineFastForward\/horizon=/, "", h); sub(/\/mode=.*$/, "", h)
        mode = name; sub(/^.*\/mode=/, "", mode)
        printf "%s  {\"benchmark\":\"%s\",\"horizon\":\"%s\",\"mode\":\"%s\",\"ns_per_op\":%s,\"jobs\":%s,\"skipped_cycles\":%s,\"bytes_per_op\":%s,\"allocs_per_op\":%s}", \
            sep, name, h, mode, must("ns/op"), val("jobs"), val("skipped_cycles"), val("B/op"), val("allocs/op")
        if (!(h in ffseen)) { ffseen[h] = 1; horder[++nh] = h }
        if (mode == "full") fullns[h] = v["ns/op"]; else if (mode == "ff") ffns[h] = v["ns/op"]
        fastforward = 1
    } else if (name ~ /^BenchmarkEngineScaling\//) {
        tasks = name; sub(/^BenchmarkEngineScaling\/tasks=/, "", tasks)
        printf "%s  {\"benchmark\":\"%s\",\"tasks\":%s,\"events\":%s,\"switches\":%s,\"events_per_sec\":%s,\"bytes_per_op\":%s,\"allocs_per_op\":%s}", \
            sep, name, tasks, val("events"), val("switches"), must("events_per_sec"), val("B/op"), val("allocs/op")
        if (v["events_per_sec"] > 0) {
            ns = 1e9 / v["events_per_sec"]
            if (mintasks == 0 || tasks + 0 < mintasks) { mintasks = tasks; minns = ns }
            if (tasks + 0 > maxtasks) { maxtasks = tasks; maxns = ns }
        }
        scaling = 1
    } else if (name ~ /^BenchmarkEngineOpenArrivals/) {
        printf "%s  {\"benchmark\":\"%s\",\"mode\":\"open-arrivals\",\"ns_per_op\":%s,\"trace_events\":%s,\"events_per_sec\":%s,\"bytes_per_op\":%s,\"allocs_per_op\":%s}", \
            sep, name, must("ns/op"), val("trace_events"), must("events_per_sec"), val("B/op"), val("allocs/op")
        openarrivals = 1
    } else if (name ~ /^BenchmarkEngineThroughput\/cores=/) {
        cores = name; sub(/^BenchmarkEngineThroughput\/cores=/, "", cores)
        printf "%s  {\"benchmark\":\"%s\",\"mode\":\"stream\",\"cores\":%s,\"ns_per_op\":%s,\"trace_events\":%s,\"events_per_sec\":%s,\"bytes_per_op\":%s,\"allocs_per_op\":%s}", \
            sep, name, cores, must("ns/op"), val("trace_events"), must("events_per_sec"), val("B/op"), val("allocs/op")
        seen["stream"] = 1
        # Best (lowest) ns/event per core count across -count draws.
        if (v["events_per_sec"] > 0) {
            ns = 1e9 / v["events_per_sec"]
            if (!(cores in corens)) { corder[++ncores] = cores; corens[cores] = ns }
            else if (ns < corens[cores]) corens[cores] = ns
        }
    } else {
        mode = (name ~ /Retain$/) ? "retain" : "stream"
        printf "%s  {\"benchmark\":\"%s\",\"mode\":\"%s\",\"ns_per_op\":%s,\"trace_events\":%s,\"events_per_sec\":%s,\"bytes_per_op\":%s,\"allocs_per_op\":%s}", \
            sep, name, mode, must("ns/op"), val("trace_events"), must("events_per_sec"), val("B/op"), val("allocs/op")
        seen[mode] = 1
    }
    sep = ",\n"
}
END {
    if (!("stream" in seen) || (!scaling && require_scaling)) {
        print "bench_engine_json: BenchmarkEngineThroughput / BenchmarkEngineScaling missing from input" > "/dev/stderr"
        exit 1
    }
    if (!fastforward && require_fastforward) {
        print "bench_engine_json: BenchmarkEngineFastForward missing from input" > "/dev/stderr"
        exit 1
    }
    if (!openarrivals && require_openarrivals) {
        print "bench_engine_json: BenchmarkEngineOpenArrivals missing from input" > "/dev/stderr"
        exit 1
    }
    if (missing) {
        print "bench_engine_json: mandatory gate-feeding field(s) missing (see above)" > "/dev/stderr"
        exit 1
    }
    for (i = 1; i <= nh; i++) {
        h = horder[i]
        if (fullns[h] > 0 && ffns[h] > 0) {
            printf "%s  {\"benchmark\":\"fastforward_speedup\",\"horizon\":\"%s\",\"full_ns_per_op\":%s,\"ff_ns_per_op\":%s,\"speedup_x\":%.1f}", \
                sep, h, fullns[h], ffns[h], fullns[h] / ffns[h]
            sep = ",\n"
        } else if (require_fastforward) {
            printf "bench_engine_json: fast-forward horizon %s is missing its full/ff pair\n", h > "/dev/stderr"
            exit 1
        }
    }
    if (1 in corens) {
        for (i = 1; i <= ncores; i++) {
            m = corder[i]
            if (m == 1) continue
            printf "%s  {\"benchmark\":\"global_dispatch\",\"cores\":%s,\"ns_per_event\":%.1f,\"ns_per_event_c1\":%.1f,\"ratio\":%.3f}", \
                sep, m, corens[m], corens[1], corens[m] / corens[1]
            sep = ",\n"
        }
    }
    if (maxns > 0 && minns > 0) {
        printf "%s  {\"benchmark\":\"scaling_sublinearity\",\"tasks_ratio\":%.1f,\"ns_per_event_ratio\":%.3f,\"ns_per_event_min_tasks\":%.1f,\"ns_per_event_max_tasks\":%.1f}\n", \
            sep, maxtasks / mintasks, maxns / minns, minns, maxns
    } else {
        printf "\n"
    }
    print "]"
}
' "$in" > "$out"

echo "wrote $out:" >&2
cat "$out" >&2
