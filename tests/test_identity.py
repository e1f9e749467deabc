import time

import identity


def test_outputs_match_the_committed_digests():
    """Every record stream of tests/identity.py hashes to its committed
    digest: predictions, beam hypotheses with their log-probability
    bits, and the toy store's CLI output are unchanged. A change that
    alters them on purpose regenerates the digests with
    `python tests/identity.py --write` and says why."""
    t0 = time.perf_counter()
    got = identity.compute()
    elapsed = time.perf_counter() - t0
    assert got == identity.committed()
    print(f"identity streams checked in {elapsed:.2f}s")
