#!/bin/sh
# Repo gate: formatting, lints, warning-free rustdoc, full test suite, the
# performance gates of one `sdmmon bench --quick` run with metrics on
# (sharded engine >= serial, bit-sliced sip hash >= 4x scalar, sampled
# tracing <= 5% of admitted pps; exit 2 naming each gate that failed),
# the streaming-ingest gate (byte-identical sdmmon-stream-v1 replay +
# backpressure accounting), a long-stream smoke (a 200-round stream that
# quarantines every core ends cleanly, replays byte-identically and keeps
# its books), the trace gate (byte-identical sdmmon-trace-v1 replay
# across runs and shard counts, a byte-identical replay of the span and
# flight-recorder event stream, + span chains whose values are not the
# zeros a renamed span key would leave),
# a bounded adversarial campaign (accounting + differential assertions,
# deterministic per seed), an events-schema smoke (byte-identical
# sdmmon-events-v1 replay), the v1-vs-v2 install differential, the
# availability-vs-security frontier gate (byte-identical
# sdmmon-frontier-v1 replay + monotone trade), a resilient-deploy smoke
# (byte-identical events + metrics replay, one terminal state per router,
# terminal events agreeing with the metrics' download books), a
# seeded 1k-router fleet deploy smoke (byte-identical replay), and a
# short traced perfbench run per data-plane workload and of fleet-10k
# (every pass checked against the serial oracles or a phase-by-phase
# replay, and the seed-1 logical counts pinned: retries, sections and
# egress of the fleet, recoveries, drops and instructions per packet of
# the data plane). The test tiers include a counting-allocator budget
# (tests/alloc_budget.rs: bytes per added router of a fleet deploy, bytes
# of an NP rebuild); see perfbench/README.md,
# docs/TESTKIT.md, docs/PERF.md, docs/OBSERVABILITY.md,
# docs/THREAT_RESPONSE.md, and docs/RESILIENCE.md §7).
set -eux

# Build artifacts must never be tracked.
if git ls-files -- target | grep -q .; then
    echo "error: target/ files are tracked by git" >&2
    exit 1
fi

cargo fmt --all --check
cargo clippy --workspace --all-targets --release -- -D warnings
# Rustdoc gate: no broken or private intra-doc links, so deleting an item
# cannot leave a dangling link behind in the docs of another.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps
cargo build --release
cargo test -q
# The release tier also runs the wire-format differential gate
# (tests/fleet_scale.rs): a router installing the v1 rendering and its
# twin installing the v2 rendering of the same fleet update must land in
# byte-identical state, across seeds and core counts.
cargo test -q --workspace --release

# Performance gates, all in one run with metrics recording on (the
# default observability level), exit 2 naming each gate that failed:
# - the sharded batch engine must not fall below serial reference
#   dispatch (the old spawn-per-batch slowdown was exactly that), with
#   atomic counters on the batch path;
# - the SWAR block path must stay at least 4x the scalar loop on the
#   headline compression (sip, the one whose scalar tree the compiler
#   cannot collapse);
# - sampled tracing (64 per mille) must cost at most 5% of admitted
#   streaming throughput.
# Every timed run asserts its outputs identical to the oracle (the
# serial engine, the scalar hash, the untraced stream), and the snapshot
# must carry its schema.
cargo run --release --bin sdmmon -- bench --quick --metrics target/ci-bench-metrics.json
grep -q '"schema": "sdmmon-metrics-v1"' target/ci-bench-metrics.json

# Streaming-ingest gate: the open-loop stream at the pinned seed must
# replay byte-identically (the sdmmon-stream-v1 determinism contract,
# which also certifies the work-stealing engine matched its serial
# oracle — the command exits 2 otherwise), and the admission books must
# balance: offered == admitted + dropped, with the tight budget forcing
# real drops.
cargo run --release --bin sdmmon -- stream --quick --capacity 16 \
    --out target/ci-stream-a.json
cargo run --release --bin sdmmon -- stream --quick --capacity 16 \
    --out target/ci-stream-b.json
cmp target/ci-stream-a.json target/ci-stream-b.json
python3 - target/ci-stream-a.json <<'PYEOF'
import json, sys
report = json.load(open(sys.argv[1]))
assert report["schema"] == "sdmmon-stream-v1", report["schema"]
assert report["admitted"] + report["dropped"] == report["offered"], report
assert report["dropped"] > 0, "tight budget produced no backpressure"
assert report["byte_identical"] is True, report
assert report["queue_delay_p999"] >= report["queue_delay_p50"], report
print(f"stream ok: {report['admitted']}/{report['offered']} admitted, "
      f"{report['steals']} steals, p999 delay {report['queue_delay_p999']}")
PYEOF

# Long-stream smoke: past about 30 rounds the hijack scenario's ladder has
# quarantined every core for good. The rounds no core can take must drop
# (not panic), the run must replay byte-identically, and the books must
# balance: offered == admitted + dropped, and every admitted packet ran.
cargo run --release --bin sdmmon -- stream --rounds 200 \
    --out target/ci-stream-long-a.json
cargo run --release --bin sdmmon -- stream --rounds 200 \
    --out target/ci-stream-long-b.json
cmp target/ci-stream-long-a.json target/ci-stream-long-b.json
python3 - target/ci-stream-long-a.json <<'PYEOF'
import json, sys
report = json.load(open(sys.argv[1]))
assert report["admitted"] + report["dropped"] == report["offered"], report
assert report["dropped"] > 0, report
assert report["np"]["processed"] == report["admitted"], report
print(f"long stream ok: {report['admitted']}/{report['offered']} admitted, "
      f"{report['np']['quarantined_cores']} cores quarantined")
PYEOF

# Trace gate: the sdmmon-trace-v1 artifact at the pinned seed must replay
# byte-identically — across two runs AND across shard counts (the trace is
# a pure function of seed x flow, so sharding may not leak into it) — and
# every trace must chain parent links back to a root span. The two
# same-shard runs must also write byte-identical event streams: the
# span.* and supervisor.flight events the artifact is assembled from.
# Replays agree even when a value is wrong, so the span values are
# checked too: every packet span names its core, every verify span
# retired instructions and halted with a known label, every respond note
# names an action and a level, and every relay sync took an attempt. The
# tracing overhead gate is the bench step's.
cargo run --release --bin sdmmon -- trace --quick --out target/ci-trace-a.json \
    --events target/ci-trace-a.jsonl
cargo run --release --bin sdmmon -- trace --quick --out target/ci-trace-b.json \
    --events target/ci-trace-b.jsonl
cmp target/ci-trace-a.json target/ci-trace-b.json
cmp target/ci-trace-a.jsonl target/ci-trace-b.jsonl
for shards in 1 2 8; do
    cargo run --release --bin sdmmon -- trace --quick --shards "$shards" \
        --out "target/ci-trace-s$shards.json"
    cmp target/ci-trace-a.json "target/ci-trace-s$shards.json"
done
python3 - target/ci-trace-a.json <<'PYEOF'
import json, sys
report = json.load(open(sys.argv[1]))
assert report["schema"] == "sdmmon-trace-v1", report["schema"]
assert report["traces"], "trace artifact is empty"
assert report["sampled_traces"] + report["flight_traces"] == len(report["traces"])
assert report["flight_traces"] > 0, "hijack campaign promoted no flight trace"
stage_order = {"ingest": 0, "admission": 1, "dispatch": 2, "verify": 3,
               "respond": 4, "operator": 0, "relay": 1, "install": 2}
for trace in report["traces"]:
    spans = trace["spans"]
    assert spans, trace
    ids = {span["id"] for span in spans}
    for span in spans:
        assert span["stage"] in stage_order, span
        assert span["id"] != 0, span
        if span["parent"]:
            assert span["parent"] in ids, (trace["id"], span)
        if span["stage"] in ("admission", "dispatch", "verify", "respond"):
            assert span["entity"] >= 0, span
        if span["stage"] == "verify":
            assert span["cost"] > 0, span
            assert span["note"] in ("clean", "violation", "fault"), span
        if span["stage"] == "respond":
            assert "?" not in span["note"], span
        if span["stage"] == "relay":
            assert span["cost"] > 0, span
    clocks = [(span["clock"], stage_order[span["stage"]]) for span in spans]
    assert clocks == sorted(clocks), trace["id"]
flights = [t for t in report["traces"] if not t["sampled"]]
assert any(any(s["stage"] == "respond" for s in t["spans"]) for t in flights), \
    "no flight trace reaches the graded response"
print(f"trace ok: {len(report['traces'])} traces ({report['flight_traces']} "
      f"flight), {report['spans']} spans")
PYEOF

cargo run --release --bin sdmmon -- campaign --seed 1 --budget 2000

# Events-schema smoke: a bounded campaign run twice with --events must
# produce byte-identical JSONL (the sdmmon-events-v1 determinism
# contract), and every line must parse as JSON carrying the schema tag.
cargo run --release --bin sdmmon -- campaign --seed 11 --budget 200 \
    --events target/ci-events-a.jsonl
cargo run --release --bin sdmmon -- campaign --seed 11 --budget 200 \
    --events target/ci-events-b.jsonl
cmp target/ci-events-a.jsonl target/ci-events-b.jsonl
python3 - target/ci-events-a.jsonl <<'PYEOF'
import json, sys
lines = open(sys.argv[1]).read().splitlines()
assert lines, "event stream is empty"
for n, line in enumerate(lines, 1):
    event = json.loads(line)
    assert event["schema"] == "sdmmon-events-v1", (n, event)
    assert isinstance(event["seq"], int) and isinstance(event["clock"], int), n
print(f"events ok: {len(lines)} lines, schema sdmmon-events-v1")
PYEOF

# Frontier gate: the availability-vs-security sweep at the pinned seed
# must replay byte-identically (the sdmmon-frontier-v1 determinism
# contract), carry its schema, and stay monotone on both axes — every
# stricter policy admits no more escapes and serves no more packets.
cargo run --release --bin sdmmon -- frontier --quick --seed 62471 \
    --out target/ci-frontier-a.json
cargo run --release --bin sdmmon -- frontier --quick --seed 62471 \
    --out target/ci-frontier-b.json
cmp target/ci-frontier-a.json target/ci-frontier-b.json
python3 - target/ci-frontier-a.json <<'PYEOF'
import json, sys
report = json.load(open(sys.argv[1]))
assert report["schema"] == "sdmmon-frontier-v1", report["schema"]
assert report["scenarios"], "frontier grid is empty"
for scenario in report["scenarios"]:
    cells = scenario["cells"]
    assert cells, (scenario["name"], "no cells")
    for loose, strict in zip(cells, cells[1:]):
        for axis in ("served", "escapes"):
            assert strict[axis] <= loose[axis], (
                scenario["name"], strict["policy"], axis,
                strict[axis], loose[axis])
    assert cells[0]["escapes"] > cells[-1]["escapes"], scenario["name"]
    assert cells[0]["served"] > cells[-1]["served"], scenario["name"]
print(f"frontier ok: {len(report['scenarios'])} scenarios x "
      f"{len(report['scenarios'][0]['cells'])} policies, monotone")
PYEOF

# Resilient-deploy smoke: a small fleet must converge through a lossy,
# corrupting, stalling link with a server outage, quarantining only the
# blackholed router (exit 2 if the whole fleet quarantines), and replay
# byte-identically — events and metrics. Bounded: 4 routers x <=3 cycles
# x <=60 transport attempts.
for run in a b; do
    cargo run --release --bin sdmmon -- deploy --routers 4 --cores 2 --seed 7 \
        --loss 0.2 --corrupt 0.05 --stall 0.05 --outage 2:5 --blackhole 2 \
        --events "target/ci-resilient-$run.jsonl" \
        --metrics "target/ci-resilient-$run.metrics.json"
done
cmp target/ci-resilient-a.jsonl target/ci-resilient-b.jsonl
cmp target/ci-resilient-a.metrics.json target/ci-resilient-b.metrics.json
python3 - target/ci-resilient-a.jsonl <<'PYEOF'
import json, sys
terminal = {}
for line in open(sys.argv[1]).read().splitlines():
    event = json.loads(line)
    assert event["schema"] == "sdmmon-events-v1", event
    if event["kind"] in ("deploy.installed", "deploy.quarantined"):
        router = event["router"]
        assert router not in terminal, ("second terminal event", router)
        terminal[router] = event["kind"]
assert sorted(terminal) == [f"router-{i}" for i in range(4)], terminal
quarantined = [r for r, kind in terminal.items() if kind == "deploy.quarantined"]
assert quarantined == ["router-2"], terminal
print(f"resilient ok: {len(terminal) - 1}/4 installed, router-2 quarantined")
PYEOF

# Events and metrics agree: summed over the terminal deploy events, the
# routers' transport attempts and integrity restarts equal the metrics
# registry's download books — on the smoke above and on a link where
# downloads give up after integrity restarts.
cargo run --release --bin sdmmon -- deploy --routers 5 --cores 2 --seed 4 \
    --loss 0.2 --corrupt 0.5 --stall 0.1 --max-retries 6 --deploy-attempts 2 \
    --events target/ci-resilient-gaveup.jsonl \
    --metrics target/ci-resilient-gaveup.metrics.json
for run in a gaveup; do
    python3 - "target/ci-resilient-$run.jsonl" \
        "target/ci-resilient-$run.metrics.json" <<'PYEOF'
import json, sys
books = {"transport_attempts": 0, "integrity_restarts": 0}
for line in open(sys.argv[1]).read().splitlines():
    event = json.loads(line)
    if event["kind"] in ("deploy.installed", "deploy.quarantined"):
        for field in books:
            books[field] += event[field]
counters = json.load(open(sys.argv[2]))["counters"]
metrics = {"transport_attempts": counters["net_download_attempts"],
           "integrity_restarts": counters["net_integrity_restarts"]}
assert books == metrics, (sys.argv[1], "events", books, "metrics", metrics)
print(f"deploy books ok: {books['transport_attempts']} attempts, "
      f"{books['integrity_restarts']} integrity restarts in events and metrics")
PYEOF
done

# Fleet-scale deploy smoke: a seeded 1k-router hierarchical campaign
# (operator -> 8 relays -> routers, shared-package key-wrap, wire-v2
# delta fetches) must complete in seconds and replay byte-identically —
# both the JSON report and the fleet.* event stream.
cargo run --release --bin sdmmon -- deploy --routers 1000 --relays 8 \
    --seed 42 --out target/ci-fleet-a.json --events target/ci-fleet-a.jsonl
cargo run --release --bin sdmmon -- deploy --routers 1000 --relays 8 \
    --seed 42 --out target/ci-fleet-b.json --events target/ci-fleet-b.jsonl
cmp target/ci-fleet-a.json target/ci-fleet-b.json
cmp target/ci-fleet-a.jsonl target/ci-fleet-b.jsonl
python3 - target/ci-fleet-a.json target/ci-fleet-a.jsonl <<'PYEOF'
import json, sys
report = json.load(open(sys.argv[1]))
assert report["schema"] == "sdmmon-fleet-v1", report["schema"]
assert report["installed"] + report["quarantined"] == report["routers"]
assert report["installed"] > 0, "fleet deploy installed nothing"
lines = open(sys.argv[2]).read().splitlines()
kinds = set()
for n, line in enumerate(lines, 1):
    event = json.loads(line)
    assert event["schema"] == "sdmmon-events-v1", (n, event)
    if event["kind"].startswith("fleet."):
        kinds.add(event["kind"])
for kind in ("fleet.relay_synced", "fleet.router_installed", "fleet.deploy_done"):
    assert kind in kinds, (kind, sorted(kinds))
print(f"fleet ok: {report['installed']}/{report['routers']} installed, "
      f"{len(kinds)} fleet.* event kinds")
PYEOF

# Benchmark smoke: perfbench (its own package) checks every data-plane
# pass — capacity, paced, and traced — against process_stream_serial, and
# the fleet workload's traced pass replays deploy_fleet phase by phase
# against the real run; it exits 1 without a result on any divergence. A
# short traced run of each data-plane workload and of fleet-10k (every
# router of which runs Core::install) keeps those checks and the per-layer
# ledgers in the gate.
cargo build --release --offline --manifest-path perfbench/Cargo.toml
for workload in fwd-bulk hijack-mix fleet-10k; do
    cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
        --workload "$workload" --seed 1 --seconds 2 --trace 1 \
        > "target/ci-perfbench-$workload.txt"
    tail -n 1 "target/ci-perfbench-$workload.txt" | grep -q '"correct": true'
done
# The smoke's logical counts are functions of the code and the seed, not
# of the host: pin the seed-1 figures, so a change that moves a retry, a
# fetched section, a recovery or a retired instruction fails here even
# when its outputs still match the oracles of its own build.
python3 - target <<'PYEOF'
import json, sys
pins = {
    "fleet-10k": {
        "net.download.attempts": 83465,
        "core.distrib.sections_fetched": 40048,
        "core.distrib.origin_egress_bytes": 339120,
        "core.distrib.relay_egress_bytes": 11950000,
        "fail_rate": 0,
    },
    "hijack-mix": {
        "npu.np.recoveries": 1990,
        "npu.np.redeploys": 287,
        "npu.np.quarantines": 212,
        "npu.engine.dropped": 1903,
        "npu.core.instr_per_pkt": 198.318,
        "monitor.full_blocks_per_pkt": 11.744,
    },
    "fwd-bulk": {
        "npu.core.instr_per_pkt": 185,
        "monitor.full_blocks_per_pkt": 11,
    },
}
for workload, expected in pins.items():
    path = f"{sys.argv[1]}/ci-perfbench-{workload}.txt"
    metrics = json.loads(open(path).read().splitlines()[-1])["metrics"]
    for name, want in expected.items():
        got = metrics[name]["value"]
        assert round(got, 3) == want, (workload, name, got, want)
print("perfbench counts ok")
PYEOF
