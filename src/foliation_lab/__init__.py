"""Desk-scale verification lab for the convolution algebra, twisted jet
rings and operator-index data attached to flows on the line that fix the
origin to finite order."""

__version__ = "0.1.0"
