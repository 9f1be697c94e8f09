#!/usr/bin/env bash
# Builds the benchmark inside the checkout and runs it.
#
#   bash bench/run.sh --workload W --seed N --seconds S --trace 0|1
#       one run, the report as the last line of standard output (the
#       form BENCHMARK.json's command is started in)
#   bash bench/run.sh [-seed N] [-runs R] [-seconds S]
#       every workload untraced and traced into bench/out, then compared
#       with the previous full run, which is kept in bench/out.prev
#   bash bench/run.sh -compare A B
#       judge result set B against A
#
# Everything it writes stays under the checkout: the Go build cache and
# the binary in .bench_build, results and span files in bench/out.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
(cd bench && go build -o "$build/sftbench" .)

case " $* " in
*" --workload "* | *" -workload "* | *" -compare "* | *" --compare "* | *" -spec "* | *" --spec "*)
	exec "$build/sftbench" "$@"
	;;
esac

out=bench/out
prev=bench/out.prev
if [ -f "$out/results.jsonl" ]; then
	rm -rf "$prev"
	mv "$out" "$prev"
fi
"$build/sftbench" -out "$out" "$@"
if [ -f "$prev/results.jsonl" ]; then
	"$build/sftbench" -compare "$prev" "$out"
fi
