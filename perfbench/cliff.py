"""The capped resolve-large item, run as its own process.

Usage: python3 perfbench/cliff.py MEMORY_MB

The address-space limit is set on this process before binmc is imported, so
a blow-up ends in MemoryError here instead of exhausting the machine.  The
parent enforces the wall-clock cap.  Prints PASS or FAIL on success; exits 3
on a MemoryError in resolve_multi or verify_resolution.  Any other failure,
such as one while importing or building the input, exits 1 with a traceback.
"""
import os
import resource
import sys


def main() -> int:
    limit = int(sys.argv[1]) << 20
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
    here = os.path.dirname(os.path.abspath(__file__))
    sys.path.insert(0, os.path.join(os.path.dirname(here), "src"))
    import workloads
    from binmc import resolve
    M = workloads.cliff_input()
    try:
        ok = resolve.verify_resolution(resolve.resolve_multi(M, check=False)).ok
    except MemoryError:
        print("error: MemoryError")
        return 3
    print("PASS" if ok else "FAIL")
    return 0


if __name__ == "__main__":
    sys.exit(main())
