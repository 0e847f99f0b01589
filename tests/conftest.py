import random

from sparsefactor import arith
from sparsefactor.arith import is_probable_prime


def pytest_report_header():
    # which modular-power kernel the exponent engines ran in this session
    return f"powmod: {getattr(arith._powmod, 'library', 'builtin pow')}"


def random_prime(rng: random.Random, bits: int) -> int:
    while True:
        cand = rng.getrandbits(bits) | (1 << (bits - 1)) | 1
        if is_probable_prime(cand):
            return cand


def prime_at_or_above(start: int) -> int:
    cand = start | 1
    while not is_probable_prime(cand):
        cand += 2
    return cand


def random_semiprime(rng: random.Random, bits: int,
                     max_gap: int | None = None) -> tuple[int, int, int]:
    """Balanced semiprime with known factors; optional gap bound q - p."""
    while True:
        p = random_prime(rng, bits // 2)
        if max_gap is not None:
            q = prime_at_or_above(p + rng.randrange(2, max_gap))
        else:
            q = random_prime(rng, bits // 2)
            if q < p:
                p, q = q, p
        if p < q < 2 * p:
            return p * q, p, q
