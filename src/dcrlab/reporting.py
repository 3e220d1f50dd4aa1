"""Deterministic CSV emission shared by the report surfaces.

Fields are quoted RFC-4180 style (quotes doubled, quoting only when the
field contains a comma, quote, or newline), floats are rendered with
repr-stable %.12g, and callers are expected to sort rows on their key
columns so identical runs produce byte-identical files.
"""

from fractions import Fraction


def csv_field(value) -> str:
    if isinstance(value, float):
        text = f"{value:.12g}"
    elif isinstance(value, Fraction):
        text = f"{value.numerator}/{value.denominator}"
    else:
        text = str(value)
    if any(ch in text for ch in ',"\n'):
        text = '"' + text.replace('"', '""') + '"'
    return text


def csv_line(fields) -> str:
    return ",".join(csv_field(f) for f in fields)

