"""Kneading data, itinerary order, realization by height bisection."""

from fractions import Fraction as F

import pytest

from sawlab import (
    KneadingNotRealizable,
    PiecewiseLinearMap,
    Shape,
    StuntedSawtoothMap,
    compare_kneading,
    kneading_data,
    realize_kneading,
)


def test_tent_kneading_row(tent_shape):
    kd = kneading_data(StuntedSawtoothMap(tent_shape, [F(1)]), 3)
    # orbit of the critical value: 1 -> 0 -> 0, against the degenerate
    # plateau at 1/2
    assert kd.row(1) == ((1,), (-1,), (-1,))
    assert kd.row_ranks(1) == (2, 0, 0)


def test_plateau_membership_reads_zero(stunted_tent):
    kd = kneading_data(stunted_tent(F(1, 2)), 2)
    # w = 1/2 lies inside its own plateau [1/4, 3/4]
    assert kd.row(1)[0] == (0,)


def test_kneading_depth_and_json_round_trip(stunted_tent):
    kd = kneading_data(stunted_tent(F(4, 5)), 6)
    assert kd.depth == 6
    payload = kd.to_json()
    assert payload["shape"] == "+-"
    assert payload["depth"] == 6
    assert len(payload["signs"]) == 1 and len(payload["signs"][0]) == 6


def test_comparison_follows_height_order(stunted_tent):
    a = kneading_data(stunted_tent(F(3, 5)), 8)
    b = kneading_data(stunted_tent(F(4, 5)), 8)
    assert compare_kneading(a, b) == -1
    assert compare_kneading(b, a) == 1
    assert compare_kneading(a, a) == 0


def test_comparison_is_a_total_preorder_on_a_grid(tent_shape):
    data = [kneading_data(StuntedSawtoothMap(tent_shape, [F(k, 16)]), 6) for k in range(17)]
    for i in range(len(data) - 1):
        assert compare_kneading(data[i], data[i + 1]) <= 0


def test_mirror_conjugacy_flips_signs(tent_shape):
    kd = kneading_data(StuntedSawtoothMap(tent_shape, [F(4, 5)]), 6)
    mirrored = kneading_data(
        StuntedSawtoothMap(tent_shape.mirrored(), [F(1, 5)]), 6
    )
    flipped = tuple(
        tuple(tuple(-s for s in step) for step in row) for row in kd.signs
    )
    assert mirrored.signs == flipped


def test_realization_round_trip_unimodal(stunted_tent):
    target = kneading_data(stunted_tent(F(4, 5)), 8)
    w = realize_kneading(target, 8, F(1, 10**9))
    reproduced = kneading_data(stunted_tent(w[0]), 8)
    assert reproduced.signs == target.signs


def test_realization_round_trip_bimodal():
    shape = Shape.from_string("+-+")
    m = StuntedSawtoothMap(shape, [F(41, 64), F(5, 64)])
    target = kneading_data(m, 12)
    w = realize_kneading(target, 12, F(1, 10**12))
    reproduced = kneading_data(StuntedSawtoothMap(shape, list(w)), 12)
    assert reproduced.signs == target.signs


def test_realization_of_shallow_prefix():
    shape = Shape.from_string("-+-")
    m = StuntedSawtoothMap(shape, [F(41, 64), F(7, 8)])
    target = kneading_data(m, 10)
    w = realize_kneading(target, 4)
    reproduced = kneading_data(StuntedSawtoothMap(shape, list(w)), 4)
    assert reproduced.signs == tuple(row[:4] for row in target.signs)


def test_unrealizable_target_raises(tent_shape):
    # a sign table that starts below the plateau band but claims to stay
    # constant afterwards contradicts every admissible height
    base = kneading_data(StuntedSawtoothMap(tent_shape, [F(1)]), 3)
    fake = type(base)(shape=tent_shape, depth=3, signs=(((1,), (1,), (-1,)),))
    with pytest.raises(KneadingNotRealizable):
        realize_kneading(fake, 3)


def test_depth_bounds_validated(stunted_tent):
    target = kneading_data(stunted_tent(F(4, 5)), 4)
    from sawlab import ConstraintViolation

    with pytest.raises(ConstraintViolation):
        realize_kneading(target, 9)
    with pytest.raises(ConstraintViolation):
        realize_kneading(target, 4, F(0))


def test_kneading_evaluates_no_fraction_map(monkeypatch):
    def refuse(self, x):
        raise AssertionError("the Fraction map was evaluated")

    monkeypatch.setattr(PiecewiseLinearMap, "__call__", refuse)
    shape = Shape.from_string("+-+")
    target = kneading_data(StuntedSawtoothMap(shape, [F(41, 64), F(5, 64)]), 12)
    w = realize_kneading(target, 12, F(1, 10**12))
    assert kneading_data(StuntedSawtoothMap(shape, list(w)), 12).signs == target.signs


# shape, heights and the heights realize_kneading(target, 12, 1e-12) returns
# for their depth-12 kneading data, on the 20 maps of acceptance criterion 8
REALIZED_CRITERION_8 = (
    ("+-", ("9/32",), (
        "2/3",
    )),
    ("+-", ("17/32",), (
        "2/3",
    )),
    ("+-+", ("1", "1/32"), (
        "469219374135208277817374379382734777617261392742174127736608252791282038"
        "507228242672115345835307394118762287707148988735523550561422095124329221"
        "807138297525846719439357314387958296962448471212914244048250603265369301"
        "203003612659225350245729778096497250437/46921980180029376437319735596932"
        "855383198497459684397104236871192266447266370198174671313741127071130303"
        "462619904409141369891816664389020386009130666499407250248293266193141108"
        "353927186807158826999873549486891413464564619029278856995403836795247485"
        "4129664",
        "330182528700747232240229178210644299776993967829025355213633047935421928"
        "233533720686249290964426314042993129917576305577893969398413230840762947"
        "482755928010242137158834130429540905791190469036811932664933425447053791"
        "82373701117354017112175792454350717043808379905384657/105658906227133049"
        "270467956983303321303769465207224304425592141805334780511344971894883451"
        "177531437578934878998651425735776469511900537107450107795692587915381677"
        "336799801016833746303535285288210604846581642237680829605658550312347767"
        "6793797534072952979077161795475996672",
    )),
    ("-+-", ("5/64", "1/4"), (
        "1099511627775/8796093022208",
        "2475882407971806159111482309/9903520314283042199192993792",
    )),
    ("+-+", ("1/2", "1/32"), (
        "469491465060267/1125899906842624",
        "29366688709415445496780898655/1267650600228229401496703205376",
    )),
    ("+-+", ("41/64", "5/64"), (
        "2/3",
        "125099989648953/1125899906842624",
    )),
    ("+-", ("45/64",), (
        "1612617054071/2199023255552",
    )),
    ("+-+", ("21/32", "11/64"), (
        "2/3",
        "193413398631013/1125899906842624",
    )),
    ("-+", ("27/32",), (
        "1/3",
    )),
    ("+-+", ("43/64", "23/64"), (
        "2/3",
        "1/3",
    )),
    ("+-", ("45/64",), (
        "1612617054071/2199023255552",
    )),
    ("-+-", ("41/64", "7/8"), (
        "475749230902109950614534642624129705314074353/71362384635297994052914298"
        "4724747568191373312",
        "554597137599963123854455400843/633825300114114700748351602688",
    )),
    ("-+-", ("3/32", "5/16"), (
        "1099511627775/8796093022208",
        "3301173438093120501827489549/9903520314283042199192993792",
    )),
    ("-+-", ("49/64", "27/32"), (
        "128385936180947794938742249018923/162259276829213363391578010288128",
        "126100789566379019/144115188075855872",
    )),
    ("-+-", ("17/32", "41/64"), (
        "594224950833635/1125899906842624",
        "2/3",
    )),
    ("-+", ("7/32",), (
        "586406201481/2199023255552",
    )),
    ("-+-", ("43/64", "53/64"), (
        "475749230902109950614534642624129705314074353/71362384635297994052914298"
        "4724747568191373312",
        "554597137599963123854455400843/633825300114114700748351602688",
    )),
    ("+-+", ("31/32", "0"), (
        "116366528504794329422590278810941766433599145986819062210453736389883023"
        "641271616667891567758889977656693656320161586202962581728960555698392451"
        "751198070674864482634246012012421881193576825945096882603325353871261611"
        "299239049746833203101516225968998603115959/12012026926087520367953852312"
        "814810978098815349679205658684639025220210500190770732715856317728530209"
        "357686430695528740190692305066083589218818337450623848256063563076145444"
        "123738605359822632659711967628668644201846928542471495387390823382219583"
        "3562657193984",
        "246531658108888923083823746745735136992881196147396170885386242297773716"
        "958519402930160999462808030777035282897200879020898884987954126488582884"
        "090654523859906242959456584983388105916814816940612526472653134750971055"
        "398437692240244246037135665265121604380111219865979/27048679994146060613"
        "239796987725650253764983093049421932951588302165703810904312805090163501"
        "448048020207329023654764988358776195046537499507227595697302506337709398"
        "220749060309439053705033033781914840724900412846292379048588879961028525"
        "9212168722675962643753419641855148032",
    )),
    ("+-+", ("63/64", "17/64"), (
        "142820372920913806459718861662755758785800955876375848426252570729441770"
        "30777/144740111546645244279463731260859884816587480832050705049321980009"
        "89141204992",
        "865740354986616370690355332656441547013570855849735440540845429379487934"
        "0202244748351753189/3259257562135177738029513101455005057682349429865498"
        "0010178247189670100796213387298934358016",
    )),
    ("-+-", ("1/32", "63/64"), (
        "359903962843867315322751514281414512166719531653722335406972227364322211"
        "964273034348558325696853285487965849705316557555023640078735968303681275"
        "7776798042337381505/1151721931403058273999497857967611355870642462285290"
        "658073793426588630420651900894801674415642596059430379753122181349151541"
        "31611020654072038617988630148194691448832",
        "398894697863770370796951723900409955524809560566228964037334452404683667"
        "294243341578185560515997880875571315578276214653477477731183664449384606"
        "8103290957430628651483443447707533/4052261297735344686047273304385899561"
        "535592023674254785152009111026028136145418111718463914987406049109568248"
        "643848426935932764722081811824108276205189417663145685354884286644224",
    )),
)


def test_realized_heights_on_the_criterion_8_targets_are_pinned():
    for word, w, realized in REALIZED_CRITERION_8:
        target = kneading_data(StuntedSawtoothMap(Shape.from_string(word), [F(x) for x in w]), 12)
        assert realize_kneading(target, 12, F(1, 10**12)) == tuple(F(x) for x in realized)
