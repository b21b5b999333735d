#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the root of
# the repository:
#
#   bash perfbench/run.sh --workload grid-cluster --seed 1 --seconds 44 --trace 0
#
# Everything the build and the runs write stays under .bench_build/
# (binary, Go build cache, spill files).
set -euo pipefail
root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/internal/explore" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the repository root; the library sources are missing here" >&2
	exit 2
fi
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath" \
	GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" \
	GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
# Provenance: the commit and dirty flag of the work tree, when this is
# one. The build itself does no VCS stamping, so it works in a plain
# copy of the sources too.
commit=unknown dirty=unknown
if [[ -e "$root/.git" ]] && command -v git >/dev/null; then
	if commit=$(GIT_OPTIONAL_LOCKS=0 git -C "$root" rev-parse HEAD 2>/dev/null); then
		if [[ -n $(GIT_OPTIONAL_LOCKS=0 git -C "$root" status --porcelain 2>/dev/null) ]]; then dirty=true; else dirty=false; fi
	else
		commit=unknown
	fi
fi
(cd "$root/perfbench" && go build -buildvcs=false -o "$build/perfbench" .)
exec "$build/perfbench" -scratch "$build" -commit "$commit" -dirty "$dirty" "$@"
