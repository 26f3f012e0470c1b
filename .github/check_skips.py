"""Fail unless the only skipped tests in a pytest JUnit XML report are the reproduction suite.

Without ``RSA_METAPHOR_DATA`` the 5 reproduction tests in ``tests/test_acceptance.py`` skip.
Any other skip, or another number of them, is a test that has stopped running unnoticed.

Usage: python .github/check_skips.py REPORT.xml
"""

import sys
import xml.etree.ElementTree as ET

EXPECTED = 5


def main(path: str) -> int:
    skipped = [(case.get("classname"), case.get("name"), skip.get("message", ""))
               for case in ET.parse(path).iter("testcase") for skip in case.iter("skipped")]
    for classname, name, message in skipped:
        print(f"skipped {classname}::{name}: {message}")
    stray = [case for case in skipped
             if case[0] != "tests.test_acceptance" or "RSA_METAPHOR_DATA" not in case[2]]
    if stray or len(skipped) != EXPECTED:
        print(f"expected exactly the {EXPECTED} RSA_METAPHOR_DATA skips in tests/test_acceptance.py;"
              f" got {len(skipped)} skips, {len(stray)} of them other tests")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
