#!/usr/bin/env bash
# Build the benchmark from source inside the checkout and run one workload.
# Everything the build and the run write stays under the checkout: the Go
# build cache, temp dir, module path and the go command's own config and
# telemetry live in .bench_build/ beside the binary, traces and run records
# in bench/out/.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/go-cache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" \
	XDG_CONFIG_HOME="$build/config" GOFLAGS=-buildvcs=false GOTOOLCHAIN=local
(cd "$root/bench" && go build -o "$build/bonsai-benchmark" .)
cd "$root"
# Released heap pages stay mapped until the kernel wants them back
# (MADV_FREE). On the reference hypervisor touching a page the Go scavenger
# returned costs about 10 us that no clock in the guest accounts for, and how
# many are returned depends on timing: ~3 000 per cold verdict by default,
# ~20 this way, with a visibly tighter latency distribution.
export GODEBUG=madvdontneed=0
# One P: the box is a few shared vCPUs, each beside a neighbour's hyperthread,
# and a run is as slow as the slower of the cores it spreads over. On one
# core the machine's states are sharp plateaus, and the calibration work
# (calib.go) runs on the core the program ran on.
export GOMAXPROCS=1
exec "$build/bonsai-benchmark" -outdir bench/out "$@"
