GO ?= go

.PHONY: all build test vet lint race bench bench-baseline bench-check experiments examples cover clean loadtest server-smoke obs-smoke tenant-smoke cluster-smoke

all: build vet lint test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Project-invariant analyzers: determinism, hot-path allocations, exit
# codes, error wrapping, metric names. See docs/LINT.md.
lint:
	$(GO) run ./cmd/ratlint ./...

# perfbench is its own module (the end-to-end benchmark driver); it
# compiles against internal/obs, server, wire, core, explore and api,
# so an API change that breaks it fails here, not at the next
# benchmark run.
test: vet
	$(GO) test ./...
	$(GO) -C perfbench vet ./...
	$(GO) -C perfbench test ./...

race:
	$(GO) test -race ./...

# One benchmark per paper table/figure plus library hot paths.
bench:
	$(GO) test -bench=. -benchmem ./...

# Refresh the committed micro-benchmark baseline (BENCH_5.json) from
# the hot-path benchmarks. Run on a quiet machine; commit the result.
# BenchmarkServerPredict with no anchor matches the whole served-path
# family: Uncached, CachedHit, Binary, Traced, Tenanted.
bench-baseline:
	$(GO) test -run '^$$' -bench 'BenchmarkPredict$$|BenchmarkPredictBatch|BenchmarkSweepClock|BenchmarkSimulatePDF1D$$|BenchmarkExplore1Worker|BenchmarkExploreFrontier|BenchmarkServerPredict' -benchmem -count=1 . ./internal/server \
	  | $(GO) run ./cmd/benchcheck -emit BENCH_5.json -note "make bench-baseline"

# Gate the current tree against the committed baseline: fails on a
# >20% ns/op or bytes/op regression in the gated benchmarks (the
# prediction kernel plus the served predict path — cached hit, binary
# wire and tenanted, so server overhead stays sub-2µs and the hit path
# stays at zero allocations) or any allocs/op increase anywhere.
bench-check:
	$(GO) test -run '^$$' -bench 'BenchmarkPredict$$|BenchmarkPredictBatch|BenchmarkSweepClock|BenchmarkSimulatePDF1D$$|BenchmarkExplore1Worker|BenchmarkExploreFrontier|BenchmarkServerPredict' -benchmem -benchtime 0.5s -count=1 . ./internal/server \
	  | $(GO) run ./cmd/benchcheck -compare BENCH_5.json -gate BenchmarkPredict,BenchmarkServerPredictCachedHit,BenchmarkServerPredictBinary,BenchmarkServerPredictTenanted

# wait_healthy polls http://$(1)/healthz every 100 ms, 50 times, and
# fails the recipe with the message $(2) if ratd never answers.
define wait_healthy
up=0; for i in $$(seq 1 50); do \
	  if curl -fs http://$(1)/healthz >/dev/null 2>&1; then up=1; break; fi; \
	  sleep 0.1; \
	done; \
	test $$up = 1 || { echo "$(2)"; exit 1; }
endef

# Closed-loop load test against a locally built ratd: start the
# daemon on LOADTEST_ADDR, wait for /healthz, drive it with ratload,
# then SIGTERM and verify the graceful drain exits 0.
LOADTEST_ADDR ?= 127.0.0.1:18080
LOADTEST_ARGS ?= -c 8 -duration 5s
loadtest:
	@set -e; tmp=$$(mktemp -d); pid=""; \
	trap 'kill $$pid 2>/dev/null || true; rm -rf "$$tmp"' EXIT; \
	$(GO) build -o $$tmp/ratd ./cmd/ratd; \
	$(GO) build -o $$tmp/ratload ./cmd/ratload; \
	"$$tmp/ratd" -addr $(LOADTEST_ADDR) & pid=$$!; \
	$(call wait_healthy,$(LOADTEST_ADDR),loadtest: ratd never became healthy); \
	"$$tmp/ratload" -url http://$(LOADTEST_ADDR) $(LOADTEST_ARGS); \
	kill -TERM $$pid; wait $$pid

# Black-box smoke of the ratd daemon: probe liveness and readiness,
# serve the paper's 1-D PDF worksheet and require Table 3's computation
# time bit for bit (t_comp = 512*768 ops / (20 ops/cycle * 150 MHz) =
# 131.072 us), replay it as one cache hit, check the Prometheus
# exposition and /v1/status, post the worksheet to /v1/predict/batch in
# two spellings (compact, and pretty-printed with one case-folded key)
# and require the predict answer twice, drive the binary wire format
# through ratload, then SIGTERM and require a graceful exit 0.
SERVER_SMOKE_ADDR ?= 127.0.0.1:18086
server-smoke:
	@set -e; tmp=$$(mktemp -d); pid=""; \
	trap 'kill $$pid 2>/dev/null || true; rm -rf "$$tmp"' EXIT; \
	$(GO) build -o $$tmp/ratd ./cmd/ratd; \
	$(GO) build -o $$tmp/ratload ./cmd/ratload; \
	"$$tmp/ratd" -addr $(SERVER_SMOKE_ADDR) & pid=$$!; \
	$(call wait_healthy,$(SERVER_SMOKE_ADDR),server-smoke: ratd never became healthy); \
	curl -fs http://$(SERVER_SMOKE_ADDR)/healthz; \
	curl -fs http://$(SERVER_SMOKE_ADDR)/readyz; \
	printf '%s\n' '{' \
	  '  "name": "1-D PDF estimation",' \
	  '  "dataset": {"elements_in": 512, "elements_out": 1, "bytes_per_element": 4},' \
	  '  "communication": {"ideal_throughput_mbps": 1000, "alpha_write": 0.37, "alpha_read": 0.16},' \
	  '  "computation": {"ops_per_element": 768, "throughput_proc": 20, "clock_mhz": 150},' \
	  '  "software": {"tsoft_seconds": 0.578, "iterations": 400}' \
	  '}' > $$tmp/pdf1d.json; \
	curl -fs -X POST -H 'Content-Type: application/json' \
	  --data-binary @$$tmp/pdf1d.json -o $$tmp/pred1.json http://$(SERVER_SMOKE_ADDR)/v1/predict; \
	cat $$tmp/pred1.json; \
	grep -q '"t_comp_seconds":0.000131072' $$tmp/pred1.json \
	  || { echo "server-smoke: t_comp does not match Table 3"; exit 1; }; \
	curl -fs -X POST -H 'Content-Type: application/json' \
	  --data-binary @$$tmp/pdf1d.json -o $$tmp/pred2.json http://$(SERVER_SMOKE_ADDR)/v1/predict; \
	cmp $$tmp/pred1.json $$tmp/pred2.json \
	  || { echo "server-smoke: replayed predict differs from the first answer"; exit 1; }; \
	curl -fs http://$(SERVER_SMOKE_ADDR)/v1/status | grep -q '"cache":{"hits":1,' \
	  || { echo "server-smoke: /v1/status does not count the replay as one cache hit"; exit 1; }; \
	curl -fs -H 'Accept: text/plain; version=0.0.4' http://$(SERVER_SMOKE_ADDR)/metrics > $$tmp/metrics; \
	grep -q 'rat_requests_total' $$tmp/metrics \
	  || { echo "server-smoke: /metrics lacks rat_requests_total"; exit 1; }; \
	grep -q '# TYPE rat_request_seconds histogram' $$tmp/metrics \
	  || { echo "server-smoke: /metrics lacks the latency histogram family"; exit 1; }; \
	curl -fs http://$(SERVER_SMOKE_ADDR)/v1/status | grep -q '"uptime_seconds"' \
	  || { echo "server-smoke: /v1/status lacks uptime_seconds"; exit 1; }; \
	{ printf '[%s,' '{"name":"1-D PDF estimation","dataset":{"elements_in":512,"elements_out":1,"bytes_per_element":4},"communication":{"ideal_throughput_mbps":1000,"alpha_write":0.37,"alpha_read":0.16},"computation":{"ops_per_element":768,"throughput_proc":20,"clock_mhz":150},"software":{"tsoft_seconds":0.578,"iterations":400}}'; \
	  sed 's/"clock_mhz"/"Clock_MHz"/' $$tmp/pdf1d.json; printf ']'; } > $$tmp/batch.json; \
	grep -q '"Clock_MHz"' $$tmp/batch.json \
	  || { echo "server-smoke: the batch lacks its case-folded key"; exit 1; }; \
	curl -fs -X POST -H 'Content-Type: application/json' \
	  --data-binary @$$tmp/batch.json -o $$tmp/batch_pred.json http://$(SERVER_SMOKE_ADDR)/v1/predict/batch; \
	P=$$(cat $$tmp/pred1.json); printf '[%s,%s]\n' "$$P" "$$P" > $$tmp/batch_want.json; \
	cmp $$tmp/batch_pred.json $$tmp/batch_want.json \
	  || { echo "server-smoke: the batch does not answer the predict answer for both spellings"; exit 1; }; \
	"$$tmp/ratload" -url http://$(SERVER_SMOKE_ADDR) -wire binary -c 4 -n 50 -duration 30s | tee $$tmp/binload; \
	grep -q 'wire parity: json and binary predictions identical' $$tmp/binload \
	  || { echo "server-smoke: binary wire parity check did not pass"; exit 1; }; \
	grep -q 'HTTP 200: 50' $$tmp/binload \
	  || { echo "server-smoke: binary-wire requests did not all succeed"; exit 1; }; \
	kill -TERM $$pid; wait $$pid; \
	echo "server-smoke: OK"

# Observability smoke: start ratd, drive 100 traced requests through
# ratload, then assert that every trace ID round-tripped, the stage
# histograms are populated, /metrics names the in-flight gauge and the
# panic counter under rat_ and has no summary family, and /v1/status
# reports the traffic.
OBS_SMOKE_ADDR ?= 127.0.0.1:18081
obs-smoke:
	@set -e; tmp=$$(mktemp -d); pid=""; \
	trap 'kill $$pid 2>/dev/null || true; rm -rf "$$tmp"' EXIT; \
	$(GO) build -o $$tmp/ratd ./cmd/ratd; \
	$(GO) build -o $$tmp/ratload ./cmd/ratload; \
	"$$tmp/ratd" -addr $(OBS_SMOKE_ADDR) & pid=$$!; \
	$(call wait_healthy,$(OBS_SMOKE_ADDR),obs-smoke: ratd never became healthy); \
	"$$tmp/ratload" -url http://$(OBS_SMOKE_ADDR) -c 4 -n 100 -traces 5 -duration 60s | tee $$tmp/report; \
	grep -q 'traces: 100/100 echoed' $$tmp/report \
	  || { echo "obs-smoke: trace IDs did not round-trip"; exit 1; }; \
	grep -q 'kernel=' $$tmp/report \
	  || { echo "obs-smoke: slowest-trace report lacks stage breakdowns"; exit 1; }; \
	curl -fs -H 'Accept: text/plain; version=0.0.4' http://$(OBS_SMOKE_ADDR)/metrics > $$tmp/metrics; \
	grep -q 'rat_stage_seconds_bucket{stage="kernel"' $$tmp/metrics \
	  || { echo "obs-smoke: stage histograms are empty"; exit 1; }; \
	grep -q 'rat_requests_total{code="200",endpoint="predict"} 100' $$tmp/metrics \
	  || { echo "obs-smoke: request counter does not show the 100 predicts"; exit 1; }; \
	grep -q 'rat_inflight{endpoint="predict"}' $$tmp/metrics \
	  || { echo "obs-smoke: /metrics lacks the per-endpoint in-flight gauge"; exit 1; }; \
	grep -q '^rat_panics_total ' $$tmp/metrics \
	  || { echo "obs-smoke: /metrics lacks rat_panics_total"; exit 1; }; \
	! grep '^# TYPE .* summary$$' $$tmp/metrics \
	  || { echo "obs-smoke: /metrics has a summary family: durations are histograms"; exit 1; }; \
	curl -fs http://$(OBS_SMOKE_ADDR)/v1/status | grep -q '"predict":{"requests":100' \
	  || { echo "obs-smoke: /v1/status does not report the traffic"; exit 1; }; \
	kill -TERM $$pid; wait $$pid; \
	echo "obs-smoke: OK"

# Multi-tenant isolation smoke: start ratd with two configured
# tenants, run the noisy-neighbor mix (hostile tenant flat out at far
# above its quota, compliant tenant paced inside its own), and assert
# from the per-tenant report lines that isolation held: the compliant
# tenant saw zero 429s while the hostile tenant was shed.
TENANT_SMOKE_ADDR ?= 127.0.0.1:18082
tenant-smoke:
	@set -e; tmp=$$(mktemp -d); pid=""; \
	trap 'kill $$pid 2>/dev/null || true; rm -rf "$$tmp"' EXIT; \
	$(GO) build -o $$tmp/ratd ./cmd/ratd; \
	$(GO) build -o $$tmp/ratload ./cmd/ratload; \
	printf '%s' '{"tenants": [' \
	  '{"name": "compliant", "key": "smoke-ck", "rate_per_sec": 1000, "burst": 1000},' \
	  '{"name": "hostile", "key": "smoke-hk", "rate_per_sec": 5, "burst": 5, "max_inflight": 2}]}' \
	  > $$tmp/tenants.json; \
	"$$tmp/ratd" -addr $(TENANT_SMOKE_ADDR) -tenants $$tmp/tenants.json & pid=$$!; \
	$(call wait_healthy,$(TENANT_SMOKE_ADDR),tenant-smoke: ratd never became healthy); \
	curl -fs -X POST http://$(TENANT_SMOKE_ADDR)/v1/predict -o /dev/null -w '%{http_code}\n' \
	  | grep -q 401 || { echo "tenant-smoke: keyless request was not rejected with 401"; exit 1; }; \
	"$$tmp/ratload" -url http://$(TENANT_SMOKE_ADDR) -mix noisy-neighbor \
	  -key-compliant smoke-ck -key-hostile smoke-hk \
	  -c 8 -duration 5s -compliant-qps 20 | tee $$tmp/report; \
	grep -q '^tenant compliant: .*rejected_429=0 ' $$tmp/report \
	  || { echo "tenant-smoke: compliant tenant was rejected — isolation failed"; exit 1; }; \
	grep '^tenant hostile: ' $$tmp/report | grep -vq ' rejected_429=0 ' \
	  || { echo "tenant-smoke: hostile tenant was never shed — quota not enforced"; exit 1; }; \
	curl -fs -H 'Accept: text/plain; version=0.0.4' http://$(TENANT_SMOKE_ADDR)/metrics > $$tmp/metrics; \
	grep -q 'rat_tenant_rejections_total{reason="quota",tenant="hostile"}' $$tmp/metrics \
	  || { echo "tenant-smoke: /metrics lacks the per-tenant rejection counter"; exit 1; }; \
	grep -q 'rat_tenant_requests_total{tenant="compliant"}' $$tmp/metrics \
	  || { echo "tenant-smoke: /metrics lacks the per-tenant request counter"; exit 1; }; \
	kill -TERM $$pid; wait $$pid; \
	echo "tenant-smoke: OK"

# Distributed-explore smoke: boot a three-ratd fleet, shard the same
# grid across 1, 2 and 3 workers with ratctl, and through one ratd
# with -via, and byte-compare every run's JSONL against a single-node
# `ratsim explore` — the determinism contract of docs/DISTRIBUTED.md,
# end to end over real HTTP. The same grid posted to a ratd's
# /v1/explore?stream=jsonl must end with its summary line and, minus
# that line, be byte-identical too: the CLIs print ratd's record. Then
# kill -9 one worker in the middle of a bigger run and assert the
# merged output is STILL byte-identical, and finish with ratload's
# repeated-request parity check through the server-side coordinator.
CLUSTER_SMOKE_PORT1 ?= 18083
CLUSTER_SMOKE_PORT2 ?= 18084
CLUSTER_SMOKE_PORT3 ?= 18085
cluster-smoke:
	@set -e; tmp=$$(mktemp -d); pid1=""; pid2=""; pid3=""; cpid=""; \
	trap 'kill $$pid1 $$pid2 $$pid3 $$cpid 2>/dev/null || true; rm -rf "$$tmp"' EXIT; \
	$(GO) build -o $$tmp/ratd ./cmd/ratd; \
	$(GO) build -o $$tmp/ratctl ./cmd/ratctl; \
	$(GO) build -o $$tmp/ratsim ./cmd/ratsim; \
	$(GO) build -o $$tmp/ratload ./cmd/ratload; \
	"$$tmp/ratd" -addr 127.0.0.1:$(CLUSTER_SMOKE_PORT1) & pid1=$$!; \
	"$$tmp/ratd" -addr 127.0.0.1:$(CLUSTER_SMOKE_PORT2) & pid2=$$!; \
	"$$tmp/ratd" -addr 127.0.0.1:$(CLUSTER_SMOKE_PORT3) & pid3=$$!; \
	for port in $(CLUSTER_SMOKE_PORT1) $(CLUSTER_SMOKE_PORT2) $(CLUSTER_SMOKE_PORT3); do \
	  $(call wait_healthy,127.0.0.1:$$port,cluster-smoke: ratd on $$port never became healthy); \
	done; \
	W1=http://127.0.0.1:$(CLUSTER_SMOKE_PORT1); \
	W2=http://127.0.0.1:$(CLUSTER_SMOKE_PORT2); \
	W3=http://127.0.0.1:$(CLUSTER_SMOKE_PORT3); \
	"$$tmp/ratctl" status -workers $$W1,$$W2,$$W3 > $$tmp/status; \
	test "$$(grep -c ': up ' $$tmp/status)" = 3 \
	  || { echo "cluster-smoke: ratctl status does not see 3 healthy workers"; cat $$tmp/status; exit 1; }; \
	GRID="-case pdf1d -clocks 75,100,150 -tp 10,20,40 -alphas 0.16,0.37 -blocks 512,2048 -devices 1,4 -topology independent -top 10 -frontier"; \
	"$$tmp/ratsim" explore $$GRID -jsonl > $$tmp/single.jsonl; \
	for workers in "$$W1" "$$W1,$$W2" "$$W1,$$W2,$$W3"; do \
	  "$$tmp/ratctl" explore -workers $$workers -shard-size 7 -jsonl $$GRID > $$tmp/fleet.jsonl 2>/dev/null; \
	  cmp -s $$tmp/single.jsonl $$tmp/fleet.jsonl \
	    || { echo "cluster-smoke: fleet ($$workers) output diverges from single-node"; exit 1; }; \
	done; \
	echo "cluster-smoke: 1, 2 and 3 workers byte-identical with single-node"; \
	"$$tmp/ratctl" explore -workers $$W2,$$W3 -via $$W1 -shard-size 7 -jsonl $$GRID > $$tmp/via.jsonl 2>/dev/null; \
	cmp -s $$tmp/single.jsonl $$tmp/via.jsonl \
	  || { echo "cluster-smoke: -via output diverges from single-node"; exit 1; }; \
	printf '{"worksheet":%s,"clocks_mhz":[75,100,150],"throughput_procs":[10,20,40],"alphas":[0.16,0.37],"block_sizes":[512,2048],"devices":[1,4],"topology":"independent","top_k":10,"frontier":true}\n' \
	  '{"name":"1-D PDF estimation","dataset":{"elements_in":512,"elements_out":1,"bytes_per_element":4},"communication":{"ideal_throughput_mbps":1000,"alpha_write":0.37,"alpha_read":0.16},"computation":{"ops_per_element":768,"throughput_proc":20,"clock_mhz":150},"software":{"tsoft_seconds":0.578,"iterations":400}}' \
	  > $$tmp/explore.json; \
	curl -fs -X POST -H 'Content-Type: application/json' \
	  --data-binary @$$tmp/explore.json -o $$tmp/ratd.jsonl "$$W1/v1/explore?stream=jsonl"; \
	tail -n 1 $$tmp/ratd.jsonl | grep -q '^{"kind":"summary"' \
	  || { echo "cluster-smoke: ratd's explore stream does not end with its summary line"; exit 1; }; \
	sed '$$d' $$tmp/ratd.jsonl > $$tmp/ratd_candidates.jsonl; \
	cmp -s $$tmp/single.jsonl $$tmp/ratd_candidates.jsonl \
	  || { echo "cluster-smoke: ratd's ?stream=jsonl diverges from single-node"; exit 1; }; \
	echo "cluster-smoke: -via and ratd's ?stream=jsonl (minus its summary) byte-identical with single-node"; \
	BIG="-case pdf1d -clocks 25,50,75,100,125,150,175,200 -tp 5,10,20,40 -alphas 0.1,0.16,0.25,0.37 -blocks 512,1024,2048,4096 -devices 1,2,4 -topology independent -top 10 -frontier"; \
	"$$tmp/ratsim" explore $$BIG -jsonl > $$tmp/single_big.jsonl; \
	"$$tmp/ratctl" explore -workers $$W1,$$W2,$$W3 -shard-size 4 -jsonl $$BIG \
	  > $$tmp/fleet_kill.jsonl 2> $$tmp/kill.log & cpid=$$!; \
	sleep 0.3; kill -9 $$pid3; \
	wait $$cpid || { echo "cluster-smoke: run did not survive losing a worker"; cat $$tmp/kill.log; exit 1; }; \
	cpid=""; \
	cmp -s $$tmp/single_big.jsonl $$tmp/fleet_kill.jsonl \
	  || { echo "cluster-smoke: output diverged after killing a worker mid-run"; exit 1; }; \
	grep -q 'explored 3072 candidates' $$tmp/kill.log \
	  || { echo "cluster-smoke: kill-run summary missing"; cat $$tmp/kill.log; exit 1; }; \
	echo "cluster-smoke: byte-identical after kill -9 of one worker mid-run"; \
	"$$tmp/ratload" -url $$W1 -distributed $$W1,$$W2 -rounds 5 -timeout 60s | tee $$tmp/parity; \
	grep -q 'distributed parity: 5/5 identical responses' $$tmp/parity \
	  || { echo "cluster-smoke: repeated distributed responses diverged"; exit 1; }; \
	kill -TERM $$pid1 $$pid2; wait $$pid1 $$pid2; pid1=""; pid2=""; pid3=""; \
	echo "cluster-smoke: OK"

# Regenerate every paper table and figure, side by side with the
# published values.
experiments:
	$(GO) run ./cmd/ratbench

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/pdf1d
	$(GO) run ./examples/pdf2d
	$(GO) run ./examples/md
	$(GO) run ./examples/sweep
	$(GO) run ./examples/explore
	$(GO) run ./examples/multifpga
	$(GO) run ./examples/convolution

cover:
	$(GO) test -cover ./...

clean:
	$(GO) clean ./...
