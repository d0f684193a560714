#!/usr/bin/env bash
# Build the flow benchmark from source, then run it with the given
# arguments (see flowbench/README.md). Run from the repository root.
set -euo pipefail
cd "$(dirname "$0")/.."
if [ ! -f dune-project ]; then
  echo "flowbench: no dune-project here; run from a full checkout" >&2
  exit 2
fi
# keep every file the build and the run touch inside the checkout: no
# dune cache, compiler temporaries under _build, and no git lookups
# above the checkout
mkdir -p _build/tmp
export TMPDIR="$PWD/_build/tmp"
export GIT_CEILING_DIRECTORIES="$(dirname "$PWD")"
DUNE_CACHE=disabled dune build --root . ./flowbench/main.exe 1>&2
exec ./_build/default/flowbench/main.exe "$@"
