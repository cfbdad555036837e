"""Shared numeric constants."""

import sys

# Euler-Mascheroni constant, 30 significant digits.
EULER_GAMMA = 0.577215664901532860606512090082

# The double range: below _MIN_NORMAL a value has lost precision.
_MIN_NORMAL = sys.float_info.min
_MAX = sys.float_info.max
