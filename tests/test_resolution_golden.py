"""Golden digest of the rewriting layer and its rank cross-checks.

One sha256 covers the JSON of the resolution_check reports for the
benchmark's five (genus, max degree) configurations and the report of
the resolution verify suite at its default degree.  Every report row
carries the certificate flags and whether the exact rank cross-check
ran, so a change to a normal form, a boundary column or a rank shows
up as a digest mismatch.  A deliberate change to these reports must
update the digest in the same commit.
"""

import hashlib
import json

from goldman_forge.magnus import resolution_check
from goldman_forge.suites import resolution

CASES = ((1, 6), (2, 4), (3, 3), (2, 5), (3, 5))
DIGEST = "0da1b2fc0d87500296d3e67021f5a068921e24cfdf4185e6fcd2a309dfc0697d"


def resolution_reports():
    reports = [resolution_check(genus, n_max) for genus, n_max in CASES]
    reports.append(resolution())
    return reports


def test_resolution_reports_match_golden_digest():
    blob = "\n".join(json.dumps(r, sort_keys=True)
                     for r in resolution_reports())
    assert hashlib.sha256(blob.encode()).hexdigest() == DIGEST
