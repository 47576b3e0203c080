"""The package's erf, erfc and erfcx against 50-digit references and SciPy.

SciPy is the oracle for agreement over the whole double range; it is not
the accuracy reference, since its own erfc tail and erfcx reflection are
up to about 500 ulps off.  The frozen references were evaluated with
mpmath at 50 digits (erfcx above 1e10 from its asymptotic series, exact
there far below double precision); a literal converts to the nearest
double.
"""

from __future__ import annotations

import math
import warnings

import numpy as np
import pytest
import scipy.special as sc
from hypothesis import given
from hypothesis import strategies as st

from polymer_lab import _special

TINY = np.finfo(float).tiny
FUNCS = ("erf", "erfc", "erfcx")

# largest distance, in ulps, from the correctly rounded value over about
# 62k points on (-26.7, 27.5), both tails and the subnormal band
ULP_BOUND = {"erf": 3, "erfc": 6, "erfcx": 5}

FROZEN = [
    # erf
    ("erf", 0.46875, "4.9261347321793799158817610193534665692367159336882e-1"),
    ("erf", -0.46875, "-4.9261347321793799158817610193534665692367159336882e-1"),
    ("erf", 4.0, "9.9999998458274209971998114784032651311595142785475e-1"),
    ("erf", -4.0, "-9.9999998458274209971998114784032651311595142785475e-1"),
    ("erf", 1e-300, "1.1283791670955126021723160763043650576181100906267e-300"),
    ("erf", 1e-08, "1.128379167095512559892101762943353613755649619283e-8"),
    ("erf", -1e-08, "-1.128379167095512559892101762943353613755649619283e-8"),
    ("erf", 0.3, "3.286267594591274161896179853182030332584717593129e-1"),
    ("erf", 1.0, "8.427007929497148693412206350826092592960669979663e-1"),
    ("erf", -2.5, "-9.9959304798255504106043578426002508727965132259629e-1"),
    ("erf", 6.0, "9.9999999999999997848026328750108688340664960081262e-1"),
    ("erf", 1e300, "1.0"),
    # erfc
    ("erfc", 0.46875, "5.0738652678206200841182389806465334307632840663118e-1"),
    ("erfc", -0.46875, "1.4926134732179379915881761019353466569236715933688"),
    ("erfc", 4.0, "1.5417257900280018852159673486884048572145253589191e-8"),
    ("erfc", -4.0, "1.9999999845827420997199811478403265131159514278547"),
    ("erfc", 1e-300, "1.0"),
    ("erfc", 1e-08, "9.999999887162083290448744010789823705664638624435e-1"),
    ("erfc", 0.3, "6.713732405408725838103820146817969667415282406871e-1"),
    ("erfc", 1.0, "1.572992070502851306587793649173907407039330020337e-1"),
    ("erfc", -2.5, "1.9995930479825550410604357842600250872796513225963"),
    ("erfc", 10.0, "2.0884875837625447570007862949577886115608181193212e-45"),
    ("erfc", 26.5, "2.2109076642637342759292390229158260390754181543016e-307"),
    ("erfc", 26.6, "1.0885125885442265331717558475457146724493599463901e-309"),
    ("erfc", 26.7, "5.2531104135944541543977566740845952772832454268997e-312"),
    ("erfc", 26.8, "2.4849621572508355783027511651393664987947849888236e-314"),
    ("erfc", 26.9, "1.1522405672639218873841166661590136715009737552058e-316"),
    ("erfc", 27.0, "5.2370489237892556850160676828495470909339125479687e-319"),
    ("erfc", 27.1, "2.3331902021586967402450188595966362618424377260879e-321"),
    ("erfc", 27.2, "1.0189049142703155395142337567076664695081489759145e-323"),
    ("erfc", 27.3, "4.3615125513391084651248614162009870899737818786974e-326"),
    ("erfc", 1e150, "0.0"),
    # erfcx
    ("erfcx", 0.46875, "6.3206968924955607815646246676786891728995509435229e-1"),
    ("erfcx", -0.46875, "1.8594024168714221464365884287620777244314494463768"),
    ("erfcx", 4.0, "1.3699945762506138988944517139980548233024923554807e-1"),
    ("erfcx", -4.0, "1.7772220904016287648464657592117729301799957313464e+7"),
    ("erfcx", 1e-300, "1.0"),
    ("erfcx", 1e-08, "9.9999998871620842904487327269982445956596635991502e-1"),
    ("erfcx", -1e-08, "1.0000000112837917709551267273001939094583656914753"),
    ("erfcx", 0.3, "7.3459933456765514991978331230276299424327656809036e-1"),
    ("erfcx", 1.0, "4.2758357615580700441075034449051518082015950316425e-1"),
    ("erfcx", -2.5, "1.0358148429726229082987299323893640452726584029732e+3"),
    ("erfcx", 10.0, "5.6140992743822585857517387220468311565157256655075e-2"),
    ("erfcx", 10000.0, "5.6418958072680841152351572504666472204286273875177e-5"),
    ("erfcx", -10.0, "5.3762342836322708968252511031600271747222237491343e+43"),
    ("erfcx", -26.6, "3.8943377196055849981225628340919239399378010628295e+307"),
    ("erfcx", -26.62, "1.1290070599146821661076215720506518396470782350464e+308"),
    ("erfcx", -26.628, "1.7286185065900259532082876789131863626080400837977e+308"),
    ("erfcx", -26.62873571375149, "1.7976931348622485388617592502115433542955864357618e+308"),
    ("erfcx", -26.628735713751492, "inf"),
    ("erfcx", 1e150, "5.6418958354775629776043646597435701134544806660722e-151"),
    ("erfcx", 1e200, "5.6418958354775630402433662577538736923755804102435e-201"),
    ("erfcx", 1e250, "5.6418958354775633146442433494097444527309104641798e-251"),
    ("erfcx", 1e300, "5.6418958354775625732544062890220617681040000721833e-301"),
]


def _ulps(got: float, want: float) -> int:
    # distance between two finite doubles of one sign, counted in
    # representable values; subnormals count like any other ulp
    assert got == 0.0 or want == 0.0 or math.copysign(1.0, got) == math.copysign(1.0, want)
    a, b = np.array([abs(got), abs(want)]).view(np.int64)
    return abs(int(a) - int(b))


@pytest.mark.parametrize("name,x,ref", FROZEN, ids=[f"{n}({x!r})" for n, x, _ in FROZEN])
def test_frozen_reference(name, x, ref):
    got = getattr(_special, name)(x)
    want = float(ref)
    if math.isinf(want):
        assert got == want
    else:
        assert _ulps(got, want) <= ULP_BOUND[name], (got, want)


def _agrees_with_scipy(name: str, x: float, ours: float, theirs: float) -> None:
    if math.isnan(theirs):
        assert math.isnan(ours)
    elif math.isinf(theirs):
        assert ours == theirs
    elif theirs == 0.0:
        if name == "erfc" and 26.6 < x < 27.3:
            # SciPy flushes erfc to 0 once x^2 exceeds log(DBL_MAX); the
            # subnormal values there are pinned by FROZEN
            assert 0.0 <= ours < TINY
        else:
            assert ours == theirs
    elif abs(theirs) >= TINY:
        assert ours == pytest.approx(theirs, rel=1e-13, abs=0.0)


_ANY = st.floats(allow_nan=True, allow_infinity=True)
_WINDOW = st.floats(-30.0, 30.0)


@pytest.mark.parametrize("name", FUNCS)
@given(x=st.one_of(_ANY, _WINDOW))
def test_scalar_matches_scipy(name, x):
    _agrees_with_scipy(name, x, float(getattr(_special, name)(x)), float(getattr(sc, name)(x)))


@pytest.mark.parametrize("name", FUNCS)
@given(xs=st.lists(st.one_of(_ANY, _WINDOW), min_size=1, max_size=40))
def test_array_matches_scipy(name, xs):
    x = np.array(xs)
    ours, theirs = getattr(_special, name)(x), getattr(sc, name)(x)
    assert ours.shape == x.shape and ours.dtype == np.float64
    for xi, a, b in zip(xs, ours.tolist(), theirs.tolist()):
        _agrees_with_scipy(name, xi, a, b)


@pytest.mark.parametrize("name", FUNCS)
@given(x=st.one_of(_ANY, _WINDOW))
def test_scalar_call_equals_array_call_bit_for_bit(name, x):
    f = getattr(_special, name)
    scalar, zero_d, array = f(x), f(np.array(x)), f(np.array([x]))
    assert type(scalar) is np.float64 and type(zero_d) is np.float64
    if math.isnan(x):
        assert np.isnan(scalar) and np.isnan(zero_d) and np.isnan(array[0])
    else:
        assert scalar.tobytes() == zero_d.tobytes() == array[0].tobytes()


EDGES = [
    0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, TINY, 1e-300,
    0.46875, -0.46875, 4.0, -4.0, 26.6, 27.3, -26.62873571375149, -26.628735713751492,
    6.71e7, 1e154, 1e300, np.finfo(float).max, -np.finfo(float).max,
]


@pytest.mark.parametrize("name", FUNCS)
def test_no_input_warns(name):
    f = getattr(_special, name)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        f(np.array(EDGES))
        for x in EDGES:
            f(x)


def test_signed_zeros_and_limits():
    assert math.copysign(1.0, _special.erf(-0.0)) == -1.0
    assert _special.erf(np.inf) == 1.0 and _special.erf(-np.inf) == -1.0
    assert _special.erfc(np.inf) == 0.0 and _special.erfc(-np.inf) == 2.0
    assert _special.erfcx(np.inf) == 0.0 and _special.erfcx(-np.inf) == np.inf


def test_empty_and_nd_arrays_keep_their_shape():
    assert _special.erfcx(np.zeros(0)).shape == (0,)
    x = np.linspace(-5.0, 5.0, 12).reshape(3, 4)
    assert np.array_equal(_special.erf(x), _special.erf(x.ravel()).reshape(3, 4))
