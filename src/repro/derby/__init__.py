"""The Derby doctor/patient workload (paper, Figure 1).

The paper adapted the 1997 Derby schema down to two classes — ``Provider``
and ``Patient`` — and two databases: 2,000 providers with ~1,000 patients
each, and 1,000,000 providers with ~3 patients each.  The randomized
doctor-patient association is drawn with Unix ``lrand48`` (Section 3.2),
reimplemented bit-exactly in :mod:`repro.derby.lrand48`.
"""

from repro.derby.config import DerbyConfig
from repro.derby.generator import LogicalDatabase, generate
from repro.derby.lrand48 import Lrand48
from repro.derby.schema import build_derby_schema

__all__ = [
    "DerbyConfig",
    "Lrand48",
    "build_derby_schema",
    "generate",
    "LogicalDatabase",
]
