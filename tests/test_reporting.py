"""The report CSV writer against the standard-library reader."""

import csv
import io

from hypothesis import given
from hypothesis import strategies as st

from dcrlab.reporting import csv_line

FIELDS = st.lists(st.text(alphabet=st.characters(exclude_characters="\r")),
                  min_size=1, max_size=6).filter(lambda fields: fields != [""])


@given(FIELDS)
def test_csv_line_roundtrips_through_csv_reader(fields):
    assert list(csv.reader(io.StringIO(csv_line(fields)))) == [fields]
