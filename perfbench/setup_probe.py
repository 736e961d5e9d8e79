"""Set-up cost of a fresh process: import competefem, parse a config, build it.

Usage: python3 perfbench/setup_probe.py CONFIG

Prints the path of the imported package so the caller can check that the
checkout's own sources were used.
"""

import sys

import competefem
from competefem.config import build_instance, parse_config

build_instance(parse_config(sys.argv[1]))
print(competefem.__file__)
