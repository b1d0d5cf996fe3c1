"""Pass/fail record of the acceptance criteria, printed by conftest.py.

It lives in its own module, not in conftest.py, because Tier-1 also
collects bench/tests, whose conftest.py takes the module name ``conftest``.
"""

CRITERION_RESULTS = []


def record_criterion(number, description, passed):
    CRITERION_RESULTS.append((number, description, passed))
