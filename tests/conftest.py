"""Shared fixtures: one cached pipeline per field across the whole session.

Field construction, evaluators, and zero scans are expensive. The package
builds each field once per defining polynomial and keeps its coefficient
tables and evaluators on the field itself; this context object adds a
zeros cache so acceptance and unit tests share work.
"""

import pytest

from zetaheights import (build_number_field, get_evaluator, locate_zeros,
                         parse_polynomial)
from zetaheights.config import RunConfig

# the analytic fixture set: every field exercised by the acceptance gate
FIXTURE_POLYS = (
    "x",            # the rationals
    "x^2+1",
    "x^2-x-1",
    "x^4+1",
    "x^3+18*x^2+312",
    "x^3+5*x^2+235",
    "x^3+3*x+213",
    "x^3+3*x+2613",
    "x^4+3*x^2+30",
    "x^4+3*x^2+1650",
    "x^4+3*x^2+2109",
    "x^4+18*x^2+60",
    "x^5+42",
    "x^5+2*x^2+26",
)

SMALL_FIXTURES = ("x", "x^2+1", "x^2-x-1", "x^4+1")
TABLE_CUBIC_QUARTIC = FIXTURE_POLYS[4:12]
TABLE_QUINTIC = FIXTURE_POLYS[12:14]


class PipelineContext:
    def __init__(self):
        self.config = RunConfig()
        self._zeros = {}

    def poly(self, text):
        return parse_polynomial(text)

    def field(self, text):
        return build_number_field(parse_polynomial(text))

    def evaluator(self, text):
        return get_evaluator(self.field(text), self.config)

    def zeros(self, text, T=2.0):
        key = (text, T)
        if key not in self._zeros:
            self._zeros[key] = locate_zeros(self.evaluator(text), T)
        return self._zeros[key]


@pytest.fixture(scope="session")
def ctx():
    return PipelineContext()
