"""Shared fixtures and the acceptance-criteria reporter."""

from contextlib import contextmanager

CRITERIA = {
    1: "closed form matches 2D oracle to 1e-6 rel and 1D oracle to 1e-8 abs on 64 seeded cases in under 60 s",
    2: "normalisation identity holds to 1e-12 on 10^4 random coatings and eta^2 >= 1 with exact symmetric limits",
    3: "perfect-mirror contact limits are 0 (tangential dipole) and 2 (normal dipole) within 1e-6",
    4: "rate ratio returns to 1 at u = 1e3 within 3|xi|/u + 1e-6",
    5: "mirror parameter is bounded by 3/2 and attains it only for a lossless perfect reflector at phase 0 or pi",
    6: "strong-absorption preset reproduces the frozen contact value to 1e-3 and its family peak lies in [1.5, 1.7]",
    7: "homogeneous-medium rate is n * gamma_air to 1e-12 and the orientation sum rule holds to 1e-9",
    8: "emitter-side loss sweep leaves the curve invariant to 1e-12 while far-side loss shifts contact values by > 0.05",
    9: "oracle-check CSV output is byte-identical across repeated runs with the same seed",
}

# number -> (description, passed or None while unvisited)
ACCEPTANCE_RESULTS = {number: [text, None] for number, text in CRITERIA.items()}


@contextmanager
def criterion(number: int):
    """Record pass/fail of one acceptance criterion for the summary."""
    try:
        yield
    except BaseException:
        ACCEPTANCE_RESULTS[number][1] = False
        raise
    else:
        ACCEPTANCE_RESULTS[number][1] = True


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if all(state is None for _, state in ACCEPTANCE_RESULTS.values()):
        return
    terminalreporter.section("acceptance criteria")
    for number in sorted(ACCEPTANCE_RESULTS):
        text, state = ACCEPTANCE_RESULTS[number]
        status = {True: "PASS", False: "FAIL", None: "NOT RUN"}[state]
        terminalreporter.write_line(f"criterion {number}: {status} - {text}")
