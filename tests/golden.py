"""Frozen expected values shared by the test modules.

Exact regular-tournament counts (labelled, odd n) and the three exponent
series.  Series coefficients are the target of the zero-tolerance golden test;
the RT counts double as evaluation targets for the numeric accuracy checks.
"""

from fractions import Fraction

RT_COUNTS = {
    1: 1,
    3: 2,
    5: 24,
    7: 2640,
    9: 3230080,
    11: 48251508480,
    13: 9307700611292160,
    15: 24061983498249428379648,
    17: 855847205541481495117975879680,
    19: 427102683126284520201657800159366676480,
    21: 3035991776725501434069099002640396043332019814400,
    37: 19868186153037961435683620207063930198200744969481152324905085973125018814239611140803845482389539449176375862818455686143415694063802642548474151771534651864859541504000,
}

RT_SERIES = [Fraction(*t) for t in [
    (-1, 2), (1, 4), (1, 4), (7, 24), (37, 120), (31, 60), (81, 28),
    (5981, 336), (22937, 240), (90031, 180), (1825009, 660), (4344847, 264),
]]

ED_SERIES = [Fraction(*t) for t in [
    (-1, 4), (3, 16), (1, 8), (47, 384), (371, 1920), (1807, 3840),
    (655, 448), (435581, 86016), (1145941, 61440), (13318871, 184320),
    (99074137, 337920), (1339710847, 1081344),
]]

EOG_SERIES = [Fraction(*t) for t in [
    (-3, 8), (11, 64), (7, 64), (233, 2048), (497, 2560), (27583, 61440),
    (55463, 43008), (33678923, 7340032), (101414573, 5242880),
    (1882520759, 20971520), (101145677531, 230686720),
    (2469157786549, 1107296256),
]]

# balanced digraph (ED) and oriented graph (EOG) counts on K_n: n <= 7 from
# the backtracking search in tests/oracles.py, n <= 11 also from the
# transfer over all pairs, n = 12-14 from the vertex-elimination counter (an
# independent prototype gave the same n = 13 and 14 values); the n <= 4
# values are independently confirmed by the torus quadrature
ED_COUNTS = {
    1: 1, 2: 2, 3: 10, 4: 152, 5: 7736, 6: 1375952, 7: 877901648,
    8: 2046320373120,
    9: 17658221702361472,
    10: 569773219836965265152,
    11: 69280070663388783890248448,
    12: 31941407692847758201303724506112,
    13: 56121720938871110502272391300032261120,
    14: 377362438996731353329256282026362716827887616,
}
EOG_COUNTS = {
    1: 1, 2: 1, 3: 3, 4: 15, 5: 219, 6: 7839, 7: 777069,
    8: 208836207,
    9: 156458382975,
    10: 328208016021561,
    11: 1946879656265710431,
    12: 32834193098697741359313,
    13: 1582809785794578499063205301,
    14: 218989607557709869788340418432175,
}

BELL_22 = 4506715738447323
PARTITION_TYPES_22 = 360847
