#!/usr/bin/env python3
"""Refactor identity gate for the E18 run ledger.

Usage: ledger_identity.py LEDGER BASELINE

Compares the last len(BASELINE) entries of LEDGER (the E18 run just
appended) with BASELINE entry by entry, after removing only the fields
that legitimately differ between runs and hosts: wall times (`wall_s`,
at any depth), the timestamp (`generated_at`), the git revision
(`git_rev`) and the host's worker count (`workers`). Everything else —
costs, rounds, evaluations, move tallies, violations, every placed
coordinate — must be equal. Prints each differing path and exits 1 on
any difference, 0 when the ledgers are identical.
"""
import json
import sys

STRIPPED = {"wall_s", "generated_at", "git_rev", "workers"}


def strip(x):
    if isinstance(x, dict):
        return {k: strip(v) for k, v in x.items() if k not in STRIPPED}
    if isinstance(x, list):
        return [strip(v) for v in x]
    return x


def diff(a, b, path, out):
    if isinstance(a, dict) and isinstance(b, dict):
        for k in sorted(set(a) | set(b)):
            if k not in a or k not in b:
                out.append(f"{path}/{k}: present on one side only")
            else:
                diff(a[k], b[k], f"{path}/{k}", out)
    elif isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        for i, (x, y) in enumerate(zip(a, b)):
            diff(x, y, f"{path}[{i}]", out)
    elif a != b:
        out.append(f"{path}: {json.dumps(a)} != {json.dumps(b)}")


def load(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def main():
    if len(sys.argv) != 3:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    ledger, baseline = load(sys.argv[1]), load(sys.argv[2])
    if len(ledger) < len(baseline):
        print(f"ledger has {len(ledger)} entries, baseline {len(baseline)}")
        return 1
    run = ledger[len(ledger) - len(baseline):]
    out = []
    for i, (a, b) in enumerate(zip(run, baseline)):
        diff(strip(a), strip(b), f"entry {i} ({b.get('label')}/{b.get('engine')})", out)
    for line in out:
        print(line)
    if out:
        print(f"identity: {len(out)} differences against {sys.argv[2]}")
        return 1
    print(f"identity: {len(baseline)} entries identical to {sys.argv[2]} "
          f"(ignoring {', '.join(sorted(STRIPPED))})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
