.PHONY: all build test bench check check-obs check-fault check-store check-net check-trace check-frontend check-fleet coverage clean

all: build

build:
	dune build @all

test:
	dune runtest

bench:
	dune exec bench/main.exe

# Observability smoke: compile one kernel with --trace-out and validate
# the emitted Chrome trace JSON, then the overhead scenario (fails if the
# disabled instrumentation's estimated cost reaches 3%).
check-obs:
	dune build @obs-smoke

# Fault smoke: replay the compile service under deterministic seeded
# fault injection (fixed seed, 20% rate) and fail if any configuration
# loses, misorders or hangs a response.
check-fault:
	dune build @fault-smoke

# Store smoke: the durable-store bench scenario plus the CLI surface —
# checkpoint a DSE run, kill and resume it (must be bit-identical),
# verify/compact the store file, and warm-restart serve-bench from it.
check-store:
	dune build @store-smoke

# Net smoke: the sharded network tier end to end — 2 shard processes
# under open-loop socket load with a SIGKILL + durable-store restart of
# one shard mid-run (fails on any lost response or a resend storm), then
# an in-process 2-shard cluster driving a self-test through real sockets.
check-net:
	dune build @net-smoke

# Trace smoke: a 2-shard in-process cluster serving a traced self-test
# (deterministic trace ids, 1-in-50 deliberate misroutes so redirects
# happen), its flight-recorder dump, a live metrics/health/events scrape,
# then trace-merge + trace-validate on the emitted span lane.
check-trace:
	dune build @trace-smoke

# Frontend smoke: round-trip the whole suite through emit → parse with
# bit-identical compiled schedules, fuzz the parse→schedule→sim pipeline
# with seeded random kernels under fault injection (fails on any escaped
# exception or round-trip violation), and check a corpus crasher is
# rejected with a located error.
check-frontend:
	dune build @frontend-smoke

# Fleet smoke: the multi-tenant QoS scenario (weighted-fair shares,
# deterministic quota sheds, retire + background-DSE promote asserted
# through the flight recorder), then a mini 2-tenant serve-bench replay
# that must hit its shares and promote one overlay.
check-fleet:
	dune build @fleet-smoke

# Branch-coverage gate: build the tier-1 suite with the tools/cover
# rewriter in its own build directory (so _build stays as it is), run it,
# then fail on any branch point of lib/ that no test hit and that
# tools/cover/allowlist.tsv does not list with a reason, and on any stale
# entry.  The instrumented suite's own verdict is not a gate: the counters
# defeat float unboxing, so allocation bounds fail there (the uninstrumented
# `dune runtest` is the test gate).  Counts land in _build_cover/cover/.
coverage:
	rm -rf _build_cover/cover
	mkdir -p _build_cover
	dune runtest --instrument-with cover --build-dir _build_cover --force \
	  > _build_cover/runtest.log 2>&1 || \
	  echo "coverage: the instrumented suite failed (not gated; see _build_cover/runtest.log)"
	dune build --build-dir _build_cover tools/cover/gate.exe
	_build_cover/default/tools/cover/gate.exe _build_cover/cover \
	  tools/cover/allowlist.tsv

# Full gate: build everything, run the whole test suite, smoke the CLI
# (`overgen list` + a small deterministic serve-bench trace), the
# island-model DSE bench, the observability trace path, the fault
# injection scenario, the durable-store scenario and the sharded network
# tier, and fail if build artifacts ever got committed, if `Marshal`
# came back onto the request path (the only unmarshal in lib/net is the
# response-schedules blob, which comes from the server), or if a metric is
# registered through a `lazy` (forcing one lazy value from two domains at
# once raises, so metrics are registered at load time).  The dead-export
# gate (tools/deadexports.ml) then fails on any lib/ export that no other
# unit references, any exported constructor nothing builds, and any
# test-only export whose doc comment gives no "For tests:" reason.  It
# reads the .cmt/.cmti typed trees that `dune build @check` writes (`@all`
# leaves some out) and fails, naming the file, if one is missing.
check:
	dune build @check
	dune exec tools/deadexports.exe
	$(MAKE) coverage
	@if [ -n "$$(git ls-files _build)" ]; then \
	  echo "error: _build artifacts are tracked by git:"; \
	  git ls-files _build; \
	  exit 1; \
	fi
	@hits="$$(git grep -n -e 'Marshal\.' -e decode_marshal -e input_value -- lib/net)"; \
	line="$$(printf '%s\n' "$$hits" | sed -n 's/^lib\/net\/wire\.ml:\([0-9]*\):.*/\1/p')"; \
	inside="$$(awk -v l="$$line" '/^let /{f = ($$2 == "decode_resp")} NR == l {print f + 0}' lib/net/wire.ml)"; \
	if [ "$$(printf '%s\n' "$$hits" | grep -c .)" != 1 ] || [ "$$inside" != 1 ]; then \
	  echo "error: unmarshalling in lib/net outside Wire.decode_resp's schedules blob:"; \
	  printf '%s\n' "$$hits"; \
	  exit 1; \
	fi
	@hits="$$(grep -rlPz 'lazy\s*\(?\s*Obs\.Metrics\.' lib --include='*.ml')"; \
	if [ -n "$$hits" ]; then \
	  echo "error: a lazy wraps an Obs.Metrics registration (register it at load time):"; \
	  printf '%s\n' "$$hits"; \
	  exit 1; \
	fi

clean:
	dune clean
