#!/usr/bin/env bash
# Layering gate: the serving tier (src/serve) links dnnspmv_core, and nothing
# below it reaches back.
#
#   scripts/check-layering.sh
#
# Fails when a file under src/{common,obs,tensor,nn,sparse,io,gen,perf,ml,core}
# includes a serve/ header, or when src/core/CMakeLists.txt names a serve
# target.
set -euo pipefail

cd "$(dirname "$0")/.."

bad=0
# Runs grep with the given arguments; anything but "no match" (a match, or
# an error such as a missing directory) fails the gate with `message`.
forbid() {
  local message=$1
  shift
  local status=0
  grep "$@" || status=$?
  if [[ $status -ne 1 ]]; then
    echo "check-layering: $message" >&2
    bad=1
  fi
}

forbid "serve/ headers included below the serving tier" \
  -rnE '^[[:space:]]*#[[:space:]]*include[[:space:]]*[<"]serve/' \
  src/{common,obs,tensor,nn,sparse,io,gen,perf,ml,core}
forbid "src/core/CMakeLists.txt names a serve target" \
  -nE 'dnnspmv_serve' src/core/CMakeLists.txt

if [[ $bad -eq 0 ]]; then
  echo "check-layering: ok"
fi
exit "$bad"
