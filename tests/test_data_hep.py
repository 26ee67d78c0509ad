"""HEP synthetic data: generator statistics, detector, imaging, selections."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.hep import (
    CutBaseline,
    DetectorModel,
    EventGenerator,
    EventImager,
    high_level_features,
    make_hep_dataset,
)
from repro.data.hep.generator import ETA_MAX, Event, Jet


@pytest.fixture(scope="module")
def generator():
    return EventGenerator(seed=0)


@pytest.fixture(scope="module")
def events(generator):
    return generator.generate(800, signal_fraction=0.5)


class TestGenerator:
    def test_class_balance(self, events):
        frac = np.mean([e.is_signal for e in events])
        assert frac == pytest.approx(0.5, abs=0.05)

    def test_signal_has_more_jets(self, generator):
        sig = generator.generate_signal(300)
        bkg = generator.generate_background(300)
        assert np.mean([e.n_jets for e in sig]) > \
            2 * np.mean([e.n_jets for e in bkg])

    def test_signal_has_substructure(self, generator):
        sig = generator.generate_signal(10)
        assert all(len(j.prongs) == 2 for e in sig for j in e.jets)
        bkg = generator.generate_background(10)
        assert all(len(j.prongs) == 1 for e in bkg for j in e.jets)

    def test_prong_fractions_sum_to_one(self, generator):
        for e in generator.generate_signal(20):
            for j in e.jets:
                assert sum(f for f, _, _ in j.prongs) == pytest.approx(1.0)

    def test_jets_within_acceptance(self, events):
        for e in events:
            for j in e.jets:
                assert abs(j.eta) <= ETA_MAX
                assert -np.pi <= j.phi <= np.pi
                assert j.pt > 0

    def test_ht_positive(self, events):
        assert all(e.ht > 0 for e in events)

    def test_deterministic_with_seed(self):
        a = EventGenerator(seed=5).generate(10)
        b = EventGenerator(seed=5).generate(10)
        assert [e.n_jets for e in a] == [e.n_jets for e in b]

    def test_validation(self, generator):
        with pytest.raises(ValueError):
            generator.generate(0)
        with pytest.raises(ValueError):
            generator.generate(10, signal_fraction=1.5)


class TestDetector:
    def test_smearing_changes_pt(self, generator):
        det = DetectorModel(seed=0)
        evs = generator.generate_background(50)
        smeared = det.simulate_all(evs)
        raw_ht = np.mean([e.ht for e in evs])
        sm_ht = np.mean([e.ht for e in smeared])
        assert sm_ht != raw_ht

    def test_threshold_drops_soft_jets(self):
        det = DetectorModel(pt_threshold=25.0, seed=0)
        soft = Event(jets=[Jet(pt=26.0, eta=0, phi=0, em_frac=0.5,
                               n_tracks=3)], is_signal=False)
        # near threshold, repeated smearing loses the jet often
        lost = sum(1 for _ in range(200)
                   if not det.simulate(soft).jets)
        assert lost > 20

    def test_hard_jets_survive(self):
        det = DetectorModel(seed=0)
        hard = Event(jets=[Jet(pt=500.0, eta=0, phi=0, em_frac=0.5,
                               n_tracks=10)], is_signal=True)
        survived = sum(1 for _ in range(100) if det.simulate(hard).jets)
        assert survived > 95

    def test_labels_preserved(self, generator):
        det = DetectorModel(seed=0)
        evs = generator.generate(100, signal_fraction=1.0)
        assert all(e.is_signal for e in det.simulate_all(evs))


class TestImager:
    def test_shape_and_dtype(self, generator):
        imager = EventImager(size=32, seed=0)
        imgs = imager.images(generator.generate(5))
        assert imgs.shape == (5, 3, 32, 32)
        assert imgs.dtype == np.float32

    def test_energy_deposited_near_jet(self):
        imager = EventImager(size=64, noise_level=0.0, seed=0)
        ev = Event(jets=[Jet(pt=200.0, eta=0.0, phi=0.0, em_frac=1.0,
                             n_tracks=5)], is_signal=False)
        img = imager.image(ev)
        # all EM energy, none hadronic
        assert img[0].sum() > 0
        assert img[1].sum() == pytest.approx(0.0, abs=1e-6)
        # peak at the image center (eta=0, phi=0)
        peak = np.unravel_index(img[0].argmax(), img[0].shape)
        assert abs(peak[0] - 32) <= 2 and abs(peak[1] - 32) <= 2

    def test_energy_conservation(self):
        """Total deposited energy ~ pt/pt_scale (Gaussian splat sums to 1)."""
        imager = EventImager(size=64, noise_level=0.0, seed=0)
        ev = Event(jets=[Jet(pt=150.0, eta=0.0, phi=0.0, em_frac=0.4,
                             n_tracks=5)], is_signal=False)
        img = imager.image(ev)
        total = img[0].sum() + img[1].sum()
        assert total == pytest.approx(150.0 / imager.pt_scale, rel=0.02)

    def test_phi_wraparound(self):
        """The detector is a cylinder: a jet at phi ~ pi deposits on both
        image edges."""
        imager = EventImager(size=64, noise_level=0.0, seed=0)
        ev = Event(jets=[Jet(pt=100.0, eta=0.0, phi=np.pi - 0.01,
                             em_frac=1.0, n_tracks=1)], is_signal=False)
        img = imager.image(ev)
        assert img[0, :3, :].sum() > 0 and img[0, -3:, :].sum() > 0

    def test_prongs_split_deposits(self):
        imager = EventImager(size=64, noise_level=0.0, seed=0)
        two_prong = Event(jets=[Jet(
            pt=100.0, eta=0.0, phi=0.0, em_frac=1.0, n_tracks=4,
            prongs=((0.6, -0.5, 0.0), (0.4, 0.5, 0.0)))], is_signal=True)
        img = imager.image(two_prong)
        row = img[0, 32, :]
        # two separated peaks along eta
        left, right = row[:32].max(), row[32:].max()
        assert left > 0 and right > 0
        assert row[30:34].max() < max(left, right) * 0.6

    def test_noise_floor(self):
        imager = EventImager(size=32, noise_level=0.5, seed=0)
        img = imager.image(Event(jets=[Jet(pt=50, eta=0, phi=0,
                                           em_frac=0.5, n_tracks=1)],
                                 is_signal=False))
        assert img[0].min() >= 0.0  # rectified noise


class TestSelections:
    def test_features_shape(self, events):
        feats = high_level_features(events)
        assert feats.shape == (len(events), 4)

    def test_njet_counts_above_threshold(self):
        ev = Event(jets=[Jet(pt=100, eta=0, phi=0, em_frac=0.5, n_tracks=1),
                         Jet(pt=20, eta=0, phi=1, em_frac=0.5, n_tracks=1)],
                   is_signal=False)
        feats = high_level_features([ev], jet_pt_min=30.0)
        assert feats[0, 0] == 1
        assert feats[0, 1] == pytest.approx(100.0)

    def test_baseline_operating_point(self):
        """SVII-A: the cut baseline reaches TPR ~0.42 at FPR 2e-4 (wide
        tolerance; exact value depends on generator statistics)."""
        from repro.data.hep.detector import DetectorModel
        from repro.train.metrics import tpr_at_fpr

        gen = EventGenerator(seed=3)
        det = DetectorModel(seed=4)
        evs = det.simulate_all(gen.generate(12000, signal_fraction=0.3))
        feats = high_level_features(evs, jet_pt_min=30.0)
        keep = (feats[:, 0] >= 3) & (feats[:, 1] > 200)
        evs = [e for e, k in zip(evs, keep) if k]
        labels = np.array([e.is_signal for e in evs], dtype=np.int64)
        score = CutBaseline().score(evs)
        tpr = tpr_at_fpr(score, labels, 1e-3)
        assert 0.25 < tpr < 0.75

    def test_score_separates(self, events):
        cb = CutBaseline()
        s = cb.score(events)
        labels = np.array([e.is_signal for e in events])
        assert s[labels].mean() > s[~labels].mean()

    def test_roc_endpoints(self, events):
        cb = CutBaseline()
        fpr, tpr = cb.roc(events)
        assert fpr[0] == 0.0
        assert fpr[-1] == pytest.approx(1.0)
        assert tpr[-1] == pytest.approx(1.0)


class TestDataset:
    def test_assembly(self, hep_ds):
        assert hep_ds.images.shape[1:] == (3, 32, 32)
        assert set(np.unique(hep_ds.labels)) <= {0, 1}
        assert len(hep_ds.events) == len(hep_ds)

    def test_preselection_enriches(self):
        """Pre-selection keeps the hard-to-discriminate region (and shifts
        the class balance, as in the paper's filtered 10M sample)."""
        ds = make_hep_dataset(800, image_size=16, preselect=True, seed=2)
        feats = high_level_features(ds.events, jet_pt_min=30.0)
        assert feats[:, 0].min() >= 3
        assert feats[:, 1].min() > 200

    def test_split_disjoint(self, hep_ds):
        tr, te = hep_ds.split(0.7, seed=0)
        assert len(tr) + len(te) == len(hep_ds)
        assert abs(len(tr) - 0.7 * len(hep_ds)) < 2

    def test_volume_accounting(self, hep_ds):
        assert hep_ds.nbytes == hep_ds.images.nbytes

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            make_hep_dataset(0)


def _digest(a):
    """sha256 over an array's dtype, shape and bytes."""
    a = np.ascontiguousarray(a)
    return hashlib.sha256(f"{a.dtype}{a.shape}".encode()
                          + a.tobytes()).hexdigest()


#: (n_events, image_size, signal_fraction, preselect, seed) -> the sha256 of
#: images, labels and high_level_features(events, 30.0), recorded on the
#: per-deposit rasteriser at 9677e28: a faster pipeline must give the bytes.
#: The first four are the datasets behind bench/golden's hep_train and
#: hybrid_train records (smoke and full, seed 0).
DATASET_PINS = {
    (96, 32, 0.5, True, 0): (
        "19a02970dc722ac19a0f2d149be30271a1014623b9878b0d2e39596d8c1f7dc3",
        "1edb5aec1818b7c4374f56fbf1510144441c7442c7452ed27151996f629b3630",
        "0dc0294585dc3a4022764dc8356f9a63cb4015d010185d8849d3380258956afb"),
    (96, 64, 0.5, True, 0): (
        "8d12891183d651535eda8d0243d30a1752141315c39f77d210bd0746b53d7338",
        "1edb5aec1818b7c4374f56fbf1510144441c7442c7452ed27151996f629b3630",
        "0dc0294585dc3a4022764dc8356f9a63cb4015d010185d8849d3380258956afb"),
    (256, 16, 0.5, True, 0): (
        "743d3abbaaa79ea1675a4bf72016cd0b51be9fdb2f1f44730f1e2c40d8e7d588",
        "4ca495d8b9a08908e2f62abbd6b061710f4befeee76094b79ba50685e548c744",
        "660c19714ab32c4e0b94eb128abc95ea196b5d822742e7ff81fd1edbe89e51e1"),
    (256, 32, 0.5, True, 0): (
        "03385b87f565be6a7853c194730c14a9b4981dc5204ebaf524a20532568f2ae3",
        "4ca495d8b9a08908e2f62abbd6b061710f4befeee76094b79ba50685e548c744",
        "660c19714ab32c4e0b94eb128abc95ea196b5d822742e7ff81fd1edbe89e51e1"),
    (200, 16, 0.5, True, 1): (
        "61af5425faa89be6db648e054d0608d3c8eb9c9747ccd89c5ddc95cafc7f4d71",
        "e7345e55175681b103ef0bb791d62ccafdf6996cd986cd6b2e342b48d7f24635",
        "1b8ef357dd71a2e36fb6aac4956fcaed45df21fb8fadf98ae7c10d4b6a197f9d"),
    (150, 32, 0.0, False, 2): (
        "717c3c9e37f620a688581c518a76694aed6b9e9891b160fb44744e9bdfa5f402",
        "b21f5ba1173d1cde76b34beccc8619227f9be61ca685d2ebedc421d179ae2c81",
        "c38d27e6ece27df95456db14714ade742d493b6f4ad4d1bd46de9667fe37008e"),
    (150, 32, 1.0, True, 3): (
        "0ae11030792b045d6e7a2024c0a56f07b7fd4bfb09ac2275719025d40821c6c5",
        "237c4ad8f17f98a78ce897fc25b5e518169e2957147d079f58d289a021f3379c",
        "105386c06589f2c0e11f9dc986cb9bda9c13df43973baf99a24910008f93ca91"),
    (60, 64, 0.35, True, 4): (
        "4c8208af6c3e43d999b16f466fbd63bacfb29cd3e83c3d4ae0699095db2fa701",
        "ac8bedab3a5494a81430d7939cebbe1384d3e538ec7102343f1fb1d376537319",
        "0be9173e42fa21709227ad6aa28efe3983c4095556c46f9e2fb997a44678406b"),
    (8, 224, 0.5, True, 5): (
        "a4ed2b6f72ea76ff0c040e6a034aef52a5b12a87c60036962619da004ecc81c7",
        "1478bbfc79b6242809f447ebbc10e74e8ac170dafeb7a01ce53979d4059eb3a2",
        "aac2c43d1f4f880014b408e16f9fad14d9091534b4bf4db41d3c42da933ed92f"),
    (300, 24, 0.5, True, 6): (
        "525086acfc0555d39f1a514d72df53a04192fa17f8022026d6b1a99dbf2e9a15",
        "26cc13417bac06faa2428d5fffb2846695e92d4547f2e35b7b35db44de6e9a35",
        "83a2009811041055e018abbdefef726cf4581c85baa9568ddb6c910cf1987799"),
}


def _edge_events():
    """Deposits at both eta edges (cropped at the image border), prongs
    pushing phi past +pi and -pi, a zero-jet event, em_frac 1.0 and 0.0 and
    a jet with no tracks."""
    return [
        Event(jets=[Jet(pt=80.0, eta=2.5, phi=0.0, em_frac=0.5,
                        n_tracks=3)], is_signal=False),
        Event(jets=[Jet(pt=120.0, eta=-2.5, phi=3.1, em_frac=0.3,
                        n_tracks=7,
                        prongs=((0.6, 0.0, 0.0), (0.4, -0.3, 0.4)))],
              is_signal=True),
        Event(jets=[], is_signal=False),
        Event(jets=[Jet(pt=60.0, eta=0.4, phi=-3.1, em_frac=1.0,
                        n_tracks=0,
                        prongs=((0.7, 0.1, 0.0), (0.3, 0.2, -0.5))),
                    Jet(pt=45.0, eta=-1.0, phi=np.pi, em_frac=0.0,
                        n_tracks=12)], is_signal=True),
    ]


#: (size, noise_level, seed) -> sha256 of images(_edge_events()), recorded
#: at 9677e28
EDGE_PINS = {
    (16, 0.0, 0):
        "e1044e2d447883f134e555bb02b842f576ecac0815f7319e49947e2540f6e524",
    (33, 0.3, 7):
        "180e8185117bc18b044c1f4d8813b1c6456961381d79655dc1e4fc2100095e72",
    (8, 0.5, 1):
        "0edaf80fc0c7b99b5caba00ea20b20188b8a09c27e63c457cbd82bdfc09f7039",
}


class TestPinnedBytes:
    """The datasets every trainer test and benchmark golden reads, held
    byte for byte: a change to the pipeline's speed must not move them."""

    @pytest.mark.parametrize("config", sorted(DATASET_PINS),
                             ids=lambda c: "n{}-s{}-f{}-pre{}-seed{}".format(
                                 *c))
    def test_a_dataset_is_pinned(self, config):
        n, size, fraction, preselect, seed = config
        ds = make_hep_dataset(n, image_size=size, signal_fraction=fraction,
                              preselect=preselect, seed=seed)
        assert (_digest(ds.images), _digest(ds.labels),
                _digest(high_level_features(ds.events, 30.0))) \
            == DATASET_PINS[config]

    @pytest.mark.parametrize("config", sorted(EDGE_PINS),
                             ids=lambda c: "s{}-noise{}-seed{}".format(*c))
    def test_the_edge_batch_is_pinned(self, config):
        size, noise, seed = config
        imager = EventImager(size=size, noise_level=noise, seed=seed)
        assert _digest(imager.images(_edge_events())) == EDGE_PINS[config]

    @pytest.mark.parametrize("noise", [0.0, 0.3])
    def test_a_batch_is_its_events_one_at_a_time(self, noise):
        events = _edge_events() + EventGenerator(seed=8).generate(12)
        batch = EventImager(size=24, noise_level=noise, seed=3).images(events)
        one = EventImager(size=24, noise_level=noise, seed=3)
        assert np.array_equal(batch, np.stack([one.image(e)
                                               for e in events]))


def _deposit_loop(imager, events):
    """The oracle: the rasteriser the slot scatter replaced, one event, one
    splat and one channel at a time, drawing each event's noise after its
    deposits from ``imager``'s generator."""
    size, k, stamp = imager.size, imager._half, imager._stamp

    def deposit(img, channel, eta, phi, amount):
        x = int(round((eta + ETA_MAX) / (2 * ETA_MAX) * (size - 1)))
        y = int(round((phi + np.pi) / (2 * np.pi) * (size - 1)))
        x0, x1 = x - k, x + k + 1
        sx0 = max(0, -x0)
        sx1 = stamp.shape[1] - max(0, x1 - size)
        x0, x1 = max(0, x0), min(size, x1)
        if x0 >= x1:
            return
        rows = np.arange(y - k, y - k + len(stamp)) % size    # phi wraps
        img[channel][rows[:, None], np.arange(x0, x1)[None, :]] += \
            amount * stamp[:, sx0:sx1]

    out = np.zeros((len(events), 3, size, size), dtype=np.float32)
    for img, event in zip(out, events):
        for jet in event.jets:
            for frac, d_eta, d_phi in jet.prongs:
                eta = float(np.clip(jet.eta + d_eta, -ETA_MAX, ETA_MAX))
                phi = jet.phi + d_phi
                pt = jet.pt * frac / imager.pt_scale
                deposit(img, 0, eta, phi, pt * jet.em_frac)
                deposit(img, 1, eta, phi, pt * (1.0 - jet.em_frac))
                deposit(img, 2, eta, phi, frac * jet.n_tracks / 10.0)
        if imager.noise_level > 0:
            noise = imager._rng.normal(
                0.0, imager.noise_level / imager.pt_scale,
                size=(2, size, size)).astype(np.float32)
            img[:2] += np.abs(noise)
    return out


def _reals(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


_prong = st.tuples(_reals(0.0, 1.0), _reals(-1.0, 1.0), _reals(-1.0, 1.0))
_jet = st.builds(
    Jet, pt=_reals(1e-3, 2000.0), eta=_reals(-4.0, 4.0),
    phi=_reals(-7.0, 7.0), em_frac=_reals(0.0, 1.0),
    n_tracks=st.integers(0, 60),
    prongs=st.lists(_prong, min_size=1, max_size=2).map(tuple))
_event = st.builds(Event, jets=st.lists(_jet, max_size=20),
                   is_signal=st.booleans())


class TestSlotRasteriser:
    @settings(max_examples=150, deadline=None)
    @given(events=st.lists(_event, max_size=6), size=st.integers(8, 64),
           noise=st.sampled_from([0.0, 0.3]) | _reals(0.0, 2.0),
           radius=_reals(0.02, 1.0), seed=st.integers(0, 2 ** 63))
    def test_images_are_the_deposit_loops(self, events, size, noise, radius,
                                          seed):
        """Bit for bit, radii whose stamp is taller than the image
        included (both add its rows folded mod the image's size)."""
        def imager():
            return EventImager(size=size, jet_radius=radius,
                               noise_level=noise, seed=seed)
        assert np.array_equal(imager().images(events),
                              _deposit_loop(imager(), events))

    @settings(max_examples=100, deadline=None)
    @given(size=st.integers(8, 64), radius=_reals(0.02, 1.0),
           eta=_reals(-ETA_MAX, ETA_MAX), phi=_reals(-np.pi, np.pi))
    def test_a_jet_keeps_its_energy(self, size, radius, eta, phi):
        """A noiseless, all-EM jet's image sums to ``pt / pt_scale`` times
        the share of its splat whose columns land in the image (eta does not
        wrap; phi does). A stamp taller than the image used to lose the
        hits its wrapped rows made on one pixel (0.964 at ``size=8,
        jet_radius=1.0``)."""
        imager = EventImager(size=size, jet_radius=radius, noise_level=0.0)
        k = imager._half
        ys, xs = np.mgrid[-k:k + 1, -k:k + 1]
        stamp = np.exp(-0.5 * ((xs / imager._sigma_px_eta) ** 2
                               + (ys / imager._sigma_px_phi) ** 2))
        x = round((eta + ETA_MAX) / (2 * ETA_MAX) * (size - 1))
        inside = (xs[0] + x >= 0) & (xs[0] + x < size)
        share = stamp[:, inside].sum() / stamp.sum()
        jet = Jet(pt=50.0, eta=eta, phi=phi, em_frac=1.0, n_tracks=0)
        img = imager.image(Event(jets=[jet], is_signal=False))
        assert not img[1:].any()
        np.testing.assert_allclose(img[0].sum(dtype=np.float64),
                                   0.5 * share, rtol=1e-5)

    def test_a_chunked_batch_is_the_deposit_loops(self):
        """More events than one chunk holds, at 224x224 (one per chunk)
        and at 16x16 (256 per chunk)."""
        events = EventGenerator(seed=4).generate(300)
        for size, n in ((224, 3), (16, 300)):
            assert np.array_equal(
                EventImager(size=size, seed=2).images(events[:n]),
                _deposit_loop(EventImager(size=size, seed=2), events[:n]))

    @pytest.mark.parametrize("field", ["pt", "eta", "phi"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_a_jet_refuses_a_non_finite_kinematic(self, field, bad):
        kw = dict(pt=50.0, eta=0.0, phi=0.0, em_frac=0.5, n_tracks=2)
        with pytest.raises(ValueError, match=field):
            Jet(**{**kw, field: bad})

    @pytest.mark.parametrize("prong", [(1.0, np.nan, 0.0), (1.0, 0.0, np.inf),
                                       (np.nan, 0.0, 0.0)])
    def test_a_non_finite_prong_is_refused_not_drawn(self, prong):
        event = Event(jets=[Jet(pt=50.0, eta=0.0, phi=0.0, em_frac=0.5,
                                n_tracks=2, prongs=(prong,))],
                      is_signal=False)
        with pytest.raises(ValueError, match="not finite"):
            EventImager(size=16, seed=0).image(event)
