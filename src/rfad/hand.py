"""Finger/channel identifiers shared by every module.

Channels are labelled with Roman numerals, thumb = I through little
finger = V, in that fixed order.
"""

FINGERS = ("I", "II", "III", "IV", "V")
