"""Golden stdout and exit codes for a fixed list of fast ``cdl`` commands.

Each case runs ``cdl`` in-process on the fixture files below; ``@name`` in
an argument list stands for the path of fixture ``name``.  A change to any
expected output is a change of behaviour and belongs in CHANGES.md.  Every
case runs with ``rational.poly_gcd``, ``rational.Poly.__init__`` and
``rational.RatFn.taylor_at_zero`` patched to raise, which pins that the
commands run no polynomial gcd, build no Fraction polynomial and expand no
rational function into a series.  ``cli._build_parser`` is patched to raise
as well: every case is a plain argument list, which ``cli._fast_parse``
reads without argparse.
"""

import hashlib
import math
from fractions import Fraction as F

import pytest

from circuitdual import cli, family, rational
from circuitdual.cli import main
from circuitdual.rational import format_rat


def atomic(atoms, count):
    """gamma_0..gamma_(count-1) of the measure sum(mass * delta_point)."""
    return [sum(mass * point ** n for point, mass in atoms) for n in range(count)]


SEQUENCES = {
    "uniform": [F(1, n + 1) for n in range(13)],
    "doubling": [2 ** n for n in range(5)],
    "factorials": [math.factorial(n) for n in range(9)],
    "alternating": [1, 0, 1, 0],
    "bumped": [1, F(3, 2), F(1, 2), F(1, 4), F(1, 8)],
    # two atoms: the 4x4 Hankel has rank 2, so a leading minor vanishes
    "two_atoms": [(F(1, 4) ** n + F(3, 4) ** n) / 2 for n in range(8)],
    # leading minors 0, 0, -1; the principal minor on {1, 2} is -4
    "zero_lead": [0, 0, 1, 2, 0],
    # three atoms: both Hankels of order 8 have rank 3, a singular PASS
    "three_atoms": atomic([(F(1, 4), F(1, 2)), (F(1, 2), F(1, 4)), (F(7, 8), F(1, 4))], 18),
    # eleven atoms: both Hankels of order 8 are regular
    "eleven_atoms": atomic([(F(k, 16), F(1, 11)) for k in range(1, 12)], 18),
    # six atoms with gamma_10 lowered by 1/64: the last pivot of order 5 is negative
    "six_atoms_lowered": [
        v - (F(1, 64) if n == 10 else 0)
        for n, v in enumerate(atomic([(F(k, 16), F(1, 6)) for k in (1, 3, 5, 8, 11, 15)], 11))
    ],
    # the zero-pivot branches of the elimination, each after one pivot: the
    # second pivot is 0 and the third positive, taken in its place
    "swap_positive": [1, F(1, 2), F(1, 4), 1, F(5, 4)],
    # the second pivot is 0, the third positive and the fourth negative:
    # the negative one is taken and fails
    "swap_negative": [1, 1, 1, F(-1, 4), F(7, 4), F(-3, 4), -1],
    # every diagonal entry left is 0 beside a nonzero off-diagonal one
    "off_diagonal": [1, 1, 1, F(-1, 4), 1],
}

# sequence files written as text: every form a line may take, one per line
# (reduced, unreduced, signed, padded, decimal, exponent, underscored), for
# the moments 1/(n+1) of the uniform measure with gamma_8 lowered to 0.111
TEXT_SEQUENCES = {
    "mixed": "# 1/(n+1), each line in another form, gamma_8 lowered\n1\n  +1/2  \n2/6\n"
             "0.25\n2e-1\n\t+3/18\n1/7  # reduced\n125E-3\n0.111\n+0010/100\n"
             "1_1/1_21\n4/48\t\n",
}

# weight-spec files: the family, and one explicit head under each tail kind
SPECS = {
    "family": "kind = family\nx = 1/10\n",
    "explicit_ones": "kind = explicit\nsq = [1/2, 1, 5/4]\ntail = ones\n",
    "explicit_xi": "kind = explicit\nsq = [1/2, 1, 5/4]\ntail = xi(w2sq=5/4)\n",
    "family_wide": "kind = family\nx = 999999999999999999997\n",
    # the first nonzero residual at n = 3, where the head meets the tail
    "explicit_late": "kind = explicit\nsq = [1/2, 1, 5/4, 6/5, 7/6]\ntail = ones\n",
}

CASES = [
    ('family taylor --m 5 --order 4', 0, '0 0 0 0 -9\n'),
    ('family scan --m 5 --xmax 1/100 --steps 12', 0, 'm=5 samples=12 negative=4 negative_prefix=4 first crossing in [131/38400, 7/2048]\nsigns: ----++++++++\nfirst nonnegative sample at x=1/240\n'),
    ('family verdict --x 1/500', 0, 'x = 1/500\nbounded = true (norm_sq = 501/500, lower_sq = 1)\ncyclic_sufficient = true\ntwo_isometry_residuals = all zero (depth 50)\nmoment_routes_agree = true (n <= 12)\nhausdorff: FAIL m=5 j=0 value=-431289964407713778137/178915288400935483344715481480613\nverdict = counterexample confirmed\n'),
    ('family verdict --x 1/10 --horizon 3 --depth 5', 1, 'x = 1/10\nbounded = true (norm_sq = 11/10, lower_sq = 1)\ncyclic_sufficient = true\ntwo_isometry_residuals = all zero (depth 50)\nmoment_routes_agree = true (n <= 3)\nhausdorff: PASS depth=3 n=3\nverdict = not confirmed\n'),
    ('family figure --xmax 1/25 --steps 4 --out - --exact', 0, 'x,D4,D5,D6\n1/100,210525999893/1004912465529900473,3353220491047619/543308939226137280428869,-922806769533682990717/593025510327903424549073515583\n1/50,528777631/174396808395711,679783829677/3175242690460710177,-1281583968722237/156917318519877836237163\n3/100,4296302342379/308329378062014909,2032684656857323578/1350950411578145378036953,119247679487577007994967/1734200182888337862186878159617\n1/25,1046322703/26087319451648,6232264777351/1093371732857470976,865941509825377/1478238582823300759552\n'),
    ('moments check @uniform --depth 6', 0, 'PASS depth=6 n=12\n'),
    ('--backend float moments check @doubling --depth 3', 1, 'FAIL m=1 j=0 value=-1.0\n'),
    ('moments check @factorials --mode stieltjes --order 4', 0, 'PASS order=4 n=8\n'),
    ('--backend float moments check @factorials --mode stieltjes --order 4', 0, 'PASS order=4 n=8\n'),
    ('moments check @alternating --mode stieltjes --order 1', 1, 'FAIL hankel=1 order=2 value=-1\n'),
    ('moments check @bumped --mode stieltjes --order 2', 1, 'FAIL hankel=0 order=2 value=-7/4\n'),
    ('--backend float moments check @bumped --mode stieltjes --order 2', 1, 'FAIL hankel=0 order=2 value=-1.75\n'),
    ('moments check @two_atoms --mode stieltjes --order 3', 0, 'PASS order=3 n=7\n'),
    ('--backend float moments check @two_atoms --mode stieltjes --order 3', 0, 'PASS order=3 n=7\n'),
    ('moments check --from-dual @family --fiber 0 --depth 9', 1, 'FAIL m=9 j=0 value=-23506683651820541/14856604508679741811003\n'),
    ('moments check --from-dual @family --fiber 1 --mode stieltjes --order 5', 0, 'PASS order=5 n=12\n'),
    ('wco describe --spec @family', 0, 'norm_sq=11/10\nlower_sq=1\nbounded=true\ncyclic_sufficient=true\nresiduals: all zero (depth 10)\n'),
    ('wco dual --spec @family --count 4', 0, "alpha=10/11\nnorm_sq=1\nlower_sq=10/11\nsq'(0)=50/121\nsq'(1)=60/121\nsq'(2)=12/13\nsq'(3)=13/14\n"),
    ('wco describe --spec @explicit_ones', 0, 'norm_sq=3/2\nlower_sq=1\nbounded=true\ncyclic_sufficient=true\nresiduals: first nonzero at n=1 value=-1/4 (depth 10)\n'),
    ('wco dual --spec @explicit_ones', 0, "alpha=2/3\nnorm_sq=1\nlower_sq=2/3\nsq'(0)=2/9\nsq'(1)=4/9\nsq'(2)=4/5\nsq'(3)=1\nsq'(4)=1\nsq'(5)=1\nsq'(6)=1\nsq'(7)=1\nsq'(8)=1\nsq'(9)=1\n"),
    ('moments check --from-dual @explicit_ones', 1, 'FAIL m=4 j=0 value=-601/10935\n'),
    ('wco describe --spec @explicit_xi', 0, 'norm_sq=3/2\nlower_sq=1\nbounded=true\ncyclic_sufficient=true\nresiduals: all zero (depth 10)\n'),
    ('wco dual --spec @explicit_xi', 0, "alpha=2/3\nnorm_sq=1\nlower_sq=2/3\nsq'(0)=2/9\nsq'(1)=4/9\nsq'(2)=4/5\nsq'(3)=5/6\nsq'(4)=6/7\nsq'(5)=7/8\nsq'(6)=8/9\nsq'(7)=9/10\nsq'(8)=10/11\nsq'(9)=11/12\n"),
    ('moments check --from-dual @explicit_xi', 0, 'PASS depth=6 n=12\n'),
    ('moments check @zero_lead --mode stieltjes --order 2', 1, 'FAIL hankel=0 order=2 value=-4\n'),
    ('--backend float moments check @zero_lead --mode stieltjes --order 2', 1, 'FAIL hankel=0 order=2 value=-4.0\n'),
    ('moments check @three_atoms --mode stieltjes --order 8', 0, 'PASS order=8 n=17\n'),
    ('--backend float moments check @three_atoms --mode stieltjes --order 8', 0, 'PASS order=8 n=17\n'),
    ('moments check @eleven_atoms --mode stieltjes --order 8', 0, 'PASS order=8 n=17\n'),
    ('--backend float moments check @eleven_atoms --mode stieltjes --order 8', 0, 'PASS order=8 n=17\n'),
    ('moments check @six_atoms_lowered --mode stieltjes --order 5', 1, 'FAIL hankel=0 order=6 value=-1715697585529375/79228162514264337593543950336\n'),
    ('--backend float moments check @six_atoms_lowered --mode stieltjes --order 5', 1, 'FAIL hankel=0 order=6 value=-2.1655148006389207e-14\n'),
    ('moments check @swap_positive --mode stieltjes --order 2', 1, 'FAIL hankel=0 order=3 value=-49/64\n'),
    ('--backend float moments check @swap_positive --mode stieltjes --order 2', 1, 'FAIL hankel=0 order=3 value=-0.765625\n'),
    ('moments check @swap_negative --mode stieltjes --order 3', 1, 'FAIL hankel=0 order=2 value=-17/16\n'),
    ('--backend float moments check @swap_negative --mode stieltjes --order 3', 1, 'FAIL hankel=0 order=2 value=-1.0625\n'),
    ('moments check @off_diagonal --mode stieltjes --order 2', 1, 'FAIL hankel=0 order=3 value=-25/16\n'),
    ('--backend float moments check @off_diagonal --mode stieltjes --order 2', 1, 'FAIL hankel=0 order=3 value=-1.5625\n'),
    ('moments check @mixed --depth 11', 1, 'FAIL m=4 j=6 value=-9/38500\n'),
    ('--backend float moments check @mixed --depth 11', 1, 'FAIL m=4 j=6 value=-0.00023376623376625272\n'),
    ('moments check @mixed --mode stieltjes --order 5', 1, 'FAIL hankel=0 order=5 value=-13/889056000000\n'),
    ('--backend float moments check @mixed --mode stieltjes --order 5', 1, 'FAIL hankel=0 order=5 value=-1.4622251016806007e-11\n'),
    ('family taylor --m 11 --order 6', 0, '0 0 0 0 -9/64 -525/32 -33975/32\n'),
    ('family taylor --m 14 --order 8', 0, '0 0 0 0 -9/512 -165/64 -1665/8 -1682415/128 -28165095/32\n'),
    ('family scan --m 12 --xmax 3/5 --steps 60', 0, 'm=12 samples=60 negative=20 negative_prefix=20 first crossing in [647/3200, 81/400]\nsigns: --------------------++++++++++++++++++++++++++++++++++++++++\nfirst nonnegative sample at x=21/100\n'),
    ('family figure --xmax 3/5 --steps 12 --out -', 0, 'x,D4,D5,D6\n0.05,0.0000894520830440,0.0000155152674605,0.00000229942471214\n0.1,0.000946133306803,0.000282714312529,0.0000857564464691\n0.15,0.00333052385241,0.00129721584162,0.000523556502335\n0.2,0.00760207243799,0.00348939997951,0.00166402610896\n0.25,0.0138075428571,0.00710341485714,0.00379136106390\n0.3,0.0218164913061,0.0122168749749,0.00708062471125\n0.35,0.0314141527397,0.0187909803459,0.0116043100367\n0.4,0.0423564739454,0.0267157503663,0.0173555075923\n0.45,0.0544004894851,0.0358433725447,0.0242723846290\n0.5,0.0673198771964,0.0460106981369,0.0322587616903\n0.55,0.0809119163401,0.0570535317191,0.0411997458779\n0.6,0.0949996013601,0.0688151734878,0.0509728917054\n'),
    ('family scan --m 40 --xmax 3/5 --steps 50', 0, 'm=40 samples=50 negative=50 negative_prefix=50\nsigns: --------------------------------------------------\nno nonnegative sample\n'),
    ('family figure --xmax 1/7 --steps 6 --out - --exact', 0, 'x,D4,D5,D6\n1/42,8620050391/1469179593033335,4076733129052/8149539202555909245,-15729035324459/35159828632893711119345\n1/21,1950137957/25941322035200,2824038410563/226000797570662400,125860187332687/72922924016133734400\n1/14,17094029/55187578125,895191683/12417205078125,45345593741/2793871142578125\n2/21,7417147084/9182814230559,37376220882262/160304388022868463,174753806833219/2569727917093861119\n5/42,32912276995625/19992868202831369,73395394766916875/132492737580163482363,205568607571562176875/1073147010153464152646179\n1/7,2656261/922746880,1671015439/1535450808320,83691837601/196537703464960\n'),
    ('family verdict --x 1000000 --horizon 100 --depth 100 --residual-depth 1000', 1, 'x = 1000000\nbounded = true (norm_sq = 1000001, lower_sq = 1)\ncyclic_sufficient = true\ntwo_isometry_residuals = all zero (depth 1000)\nmoment_routes_agree = true (n <= 100)\nhausdorff: PASS depth=100 n=100\nverdict = not confirmed\n'),
    # the oracle's window at horizon 100, as recorded on reduced pairs
    ('moments check --from-dual @explicit_ones --fiber 0 --horizon 100 --depth 100', 1, 'FAIL m=4 j=0 value=-601/10935\n'),
    ('moments check --from-dual @explicit_ones --fiber 3 --horizon 100 --depth 100', 0, 'PASS depth=100 n=100\n'),
    ('moments check --from-dual @family_wide --horizon 100 --depth 100', 0, 'PASS depth=100 n=100\n'),
    ('family verdict --x 999999999999999999997 --horizon 100 --depth 100 --residual-depth 1000', 1, 'x = 999999999999999999997\nbounded = true (norm_sq = 999999999999999999998, lower_sq = 1)\ncyclic_sufficient = true\ntwo_isometry_residuals = all zero (depth 1000)\nmoment_routes_agree = true (n <= 100)\nhausdorff: PASS depth=100 n=100\nverdict = not confirmed\n'),
    # depths on both sides of the deciding depth L + 1: 4 for the family,
    # 6 for explicit_late
    ('wco describe --spec @family --depth 2', 0, 'norm_sq=11/10\nlower_sq=1\nbounded=true\ncyclic_sufficient=true\nresiduals: all zero (depth 2)\n'),
    ('wco describe --spec @family --depth 4', 0, 'norm_sq=11/10\nlower_sq=1\nbounded=true\ncyclic_sufficient=true\nresiduals: all zero (depth 4)\n'),
    ('wco describe --spec @family --depth 1000', 0, 'norm_sq=11/10\nlower_sq=1\nbounded=true\ncyclic_sufficient=true\nresiduals: all zero (depth 1000)\n'),
    ('wco describe --spec @explicit_late --depth 2', 0, 'norm_sq=3/2\nlower_sq=1\nbounded=true\ncyclic_sufficient=true\nresiduals: all zero (depth 2)\n'),
    ('wco describe --spec @explicit_late --depth 4', 0, 'norm_sq=3/2\nlower_sq=1\nbounded=true\ncyclic_sufficient=true\nresiduals: first nonzero at n=3 value=-1/6 (depth 4)\n'),
    ('wco describe --spec @explicit_late --depth 1000', 0, 'norm_sq=3/2\nlower_sq=1\nbounded=true\ncyclic_sufficient=true\nresiduals: first nonzero at n=3 value=-1/6 (depth 1000)\n'),
    ('family verdict --x 1000000007/1000000009 --horizon 100 --depth 100', 0, 'x = 1000000007/1000000009\nbounded = true (norm_sq = 2000000016/1000000009, lower_sq = 1)\ncyclic_sufficient = true\ntwo_isometry_residuals = all zero (depth 50)\nmoment_routes_agree = true (n <= 100)\nhausdorff: FAIL m=54 j=0 value=-7931851967226115176382633252485706635934217806268839800654819668628346534455587042506272259032870607794824564499752777918627581923438274459036186116684613159722178415578877856417716864799777409588075210022168664403227580446241102389174147209220730613315965667414451843282583220896970899991358729606051558636633687179869556887742162329865775413071597324712321242211732269268061900663885786272734103871473988118170266782525995786610665682256157900628586729032716434920700231425500549508679718404074048461577039864906127992985633687940320858696322904466997831785809702330554036813083831678175150135912971312097519126303101533244481282943971001516015997401848247535861147892657795521021966952332707851971067609555644682819403056492070277017163878832126322254427050324644993351552981818172307797478590148932267814952136545371413978700832872414739141150060194184057080100021925650079576455452400534000423309921538153982166029117920505350090880700819781064013381488860591767595383569246472982046338169284672294981669850447298439720915526042807921337757291261769228125303124926221507580370509597248595249707186124819070857819135021227818211358845596320421551786055908654451958685802386225181221607306664255328741933393439481830242734986394460786380592087068515817990340843431649178788601674544695393800329199192107290036313463927179966360236805817823128900407085291811525034881994079710831020184017049542587225607688973299613306901410741102198754696261461720043466253639368100886769631148100191371683/1309203044122325099321643902544857082115963266715294285551673843331839741456947145438011150168417784792312331834618850445125081173687521910906657605353179834189563605180230044771113090889335586351936091875283386714376972267771962064921117254921627872503974080907441566870493629634856131578030851739509280754088857103630355012640839825487976474005275450820393945420962651354545711222849377757439939242854337156995671674704082446097635939089887072525428546307180842227960928824918305929420949334090540102024012751901588786710477244392668536093866952863512996382024348531274002438361557606965076882425688035490166454732525779534128369332605563300579770870799357470404508584730813053209953285984182981467730024011929940564559783001729426949190323719801961805901225387017106193086858461980324923414101278537988038626114097477015842402019027959535582373054819578576646951365857544244010380291244712757923642342398856764318525771914802975536903572396637563789524998403339199344648632624017754556728160506384568734119584316534333824531668006028152235195815220022167452676612075696724033066052210555540681187683987311079289768311210981955455871514248819024094211340903818881309320745594989028665333167491896375734710237467337861390262215026327552997084446982853967634252585177741374356186350193452727590714983837521570853173603428378482294825737491632685324817893255520281331870766985410888398201108684602842980426826864843460297538382908722066047321049804438914792647386208795750210522037550163725626900480\nverdict = counterexample confirmed\n'),
]


def refuse_gcd(*args):
    raise AssertionError("a command ran a polynomial gcd")


def refuse_poly(*args):
    raise AssertionError("a command built a Fraction polynomial")


def refuse_series(*args):
    raise AssertionError("a command ran a rational series division")


def refuse_rational_route(*args):
    raise AssertionError("family taylor built a rational function")


def refuse_argparse(*args):
    raise AssertionError("a plain argument list was parsed by argparse")


@pytest.mark.parametrize("command, code, stdout", CASES, ids=[c[0] for c in CASES])
def test_golden_cli(tmp_path, capsys, monkeypatch, command, code, stdout):
    # the family builder puts D_m in canonical form over its known
    # denominator, in integers, so no command may reach the gcd route, build
    # a Poly or divide series of a RatFn; the cache is cleared so that each
    # case builds what it uses
    monkeypatch.setattr(rational, "poly_gcd", refuse_gcd)
    monkeypatch.setattr(rational.Poly, "__init__", refuse_poly)
    monkeypatch.setattr(rational.RatFn, "taylor_at_zero", refuse_series)
    monkeypatch.setattr(cli, "_build_parser", refuse_argparse)
    family.d_ratfn.cache_clear()
    for name, values in SEQUENCES.items():
        (tmp_path / name).write_text("".join(format_rat(F(v)) + "\n" for v in values))
    for name, text in {**TEXT_SEQUENCES, **SPECS}.items():
        (tmp_path / name).write_text(text)
    argv = [str(tmp_path / a[1:]) if a.startswith("@") else a for a in command.split()]
    assert main(argv) == code
    assert capsys.readouterr().out == stdout


# stdout of `family taylor --m 100 --order 100`, at the caps of both flags:
# 14,925 characters, pinned by length and digest
CAP_TAYLOR_LENGTH = 14925
CAP_TAYLOR_SHA256 = "5514e8c6cdf5cad338ebb765664c3f858304359883eacda0455b1912e2bae681"


def test_golden_taylor_at_cap(capsys, monkeypatch):
    # the series route builds no D_m and runs no rational series division
    monkeypatch.setattr(family, "d_ratfn", refuse_rational_route)
    monkeypatch.setattr(rational.RatFn, "taylor_at_zero", refuse_rational_route)
    monkeypatch.setattr(cli, "_build_parser", refuse_argparse)
    assert main(["family", "taylor", "--m", "100", "--order", "100"]) == 0
    out = capsys.readouterr().out
    assert len(out) == CAP_TAYLOR_LENGTH
    assert hashlib.sha256(out.encode()).hexdigest() == CAP_TAYLOR_SHA256


# the largest outputs of the grid routes, pinned by length and digest: a
# scan at the cap of --m whose first crossing, in [1553/1000, 777/500], is
# bisected, and an exact figure at a 21-character --xmax, as recorded with
# per-point evaluation of D_m; then two decimal figures, at the cap of
# --steps and at the 21-character --xmax, as recorded with one homogenised
# Horner pass of D_m's integer pair per grid point
AT_SCALE = [
    ("family scan --m 100 --xmax 2 --steps 500", 636,
     "6fa597441c5d1b42154fe77a01ce8b0d0872ff2c9929b042193ae5e40c5cf709"),
    ("family scan --m 100 --xmax 3/5 --steps 10000", 10087,
     "631c1c1fa15bae97307e2a98dffbe62c9151b9bea1b360b6c75ae1ed0ad0dab4"),
    ("family figure --xmax 9999999999/9999999997 --steps 1000 --out - --exact", 1014853,
     "60e14b0cd09b96b652a5c40b16e03b15315c80aaf3311d648f6f9200baae9cf2"),
    ("family figure --xmax 3/5 --steps 10000 --out -", 581292,
     "c2d7c367db822273c9dc285e4f1c912d36ad8713544c8106c3cde19957b01d76"),
    ("family figure --xmax 9999999999/9999999997 --steps 1000 --out -", 63683,
     "ee582d7f5c7a2a2c136d1203b17293cdfc6334e63f6f535bb51e6090da5874e3"),
]


@pytest.mark.parametrize("command, length, digest", AT_SCALE, ids=[c[0] for c in AT_SCALE])
def test_golden_grid_at_scale(capsys, monkeypatch, command, length, digest):
    monkeypatch.setattr(rational, "poly_gcd", refuse_gcd)
    monkeypatch.setattr(rational.Poly, "__init__", refuse_poly)
    monkeypatch.setattr(rational.RatFn, "taylor_at_zero", refuse_series)
    monkeypatch.setattr(cli, "_build_parser", refuse_argparse)
    assert main(command.split()) == 0
    out = capsys.readouterr().out
    assert len(out) == length
    assert hashlib.sha256(out.encode()).hexdigest() == digest
