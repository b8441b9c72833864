"""Print what `read_csv` makes of dataset texts holding NUL; stdlib only.

Python 3.10's `csv.reader` refuses NUL and 3.11's reads it, and a text
holding NUL must read as `csv.reader` reads it on the running version.
Run it where pytest is not installed, and compare two checkouts:

    PYTHONPATH=src python3.10 tests/nul_parity.py
"""

import sys

from ardkit.errors import ArdkitError
from ardkit.model import Indicator, read_csv

INDICATOR = Indicator.from_json({"id": "x", "name": "x", "nest_domain": "healthy", "value_kind": "count", "source_id": "s"})
HEADER = "SA3CODE_16,CALENDAR_YEAR,AGE_GROUP,SEX,VALUE,UNCERTAINTY\n"

for body in ("A,2016,0-4,male,5,0\nA\0B,2016,0-4,male,5,0\n", "0\x000,0,0,0,0,0\n", "A,2016,0-4,male,5,0\0\n"):
    try:
        print(sys.version_info[:2], read_csv(HEADER + body, INDICATOR).columns)
    except ArdkitError as exc:
        print(sys.version_info[:2], "ArdkitError:", exc)
