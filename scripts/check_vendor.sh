#!/usr/bin/env bash
# Guards the offline build environment (see vendor/README.md):
#
# 1. The vendored shim crates must build *standalone* — copied out of this workspace into
#    a scratch workspace of their own — so none of them silently grows a dependency on a
#    workspace crate or on the registry.
# 2. Cargo.lock must reference only path dependencies: a `source = "registry+..."` (or
#    git) entry means someone added a real external dependency, which cannot build where
#    this repo is developed.
#
# Invoked from CI; safe to run locally (`bash scripts/check_vendor.sh`).
set -euo pipefail
cd "$(dirname "$0")/.."

SHIMS=(rand parking_lot proptest)

echo "==> vendored shims build standalone"
scratch="$(mktemp -d)"
trap 'rm -rf "$scratch"' EXIT
cp -r vendor "$scratch/vendor"
{
  echo '[workspace]'
  echo 'resolver = "2"'
  printf 'members = ['
  for shim in "${SHIMS[@]}"; do printf '"vendor/%s", ' "$shim"; done
  echo ']'
} > "$scratch/Cargo.toml"
# A shim that (accidentally) depends on a workspace crate or a registry crate fails here:
# the scratch workspace contains nothing but the shims themselves.
(cd "$scratch" && cargo build --quiet)
echo "    OK: ${SHIMS[*]}"

echo "==> Cargo.lock references only path dependencies"
if grep -nE '^source = ' Cargo.lock; then
  echo "ERROR: Cargo.lock pins non-path sources (above); the build environment is" >&2
  echo "offline — vendor a shim under vendor/ instead (see vendor/README.md)." >&2
  exit 1
fi
echo "    OK: no registry/git sources in Cargo.lock"
