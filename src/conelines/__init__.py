"""Exact classification of real lines and tritangents on cone sextics.

Lattice arithmetic, mod-2 root classes, the tritangent census with its
crossing codes, and the fiberwise mapping class action of lattice
translations — everything computed over the integers and verifiable by
brute-force enumeration.
"""

__version__ = "0.1.0"
