import pytest

from exsim import corpus as corpus_mod
from exsim import encoder as encoder_mod
from exsim.pairclf import PreparedCorpus


@pytest.fixture(scope="session")
def small_synth():
    """A small noise-free synthetic corpus shared by read-only tests."""
    spec = corpus_mod.SyntheticSpec(n_templates=4, per_template=8,
                                    noise_rate=0.0, vocab_size=150, seed=11)
    return corpus_mod.generate_synthetic(spec, d_img=8)


@pytest.fixture(scope="session")
def small_trained(small_synth):
    """Pre-trained and fine-tuned encoder over the small corpus."""
    corpus, truth, pairs = small_synth
    view = PreparedCorpus.with_own_vocab(corpus)
    params, _ = encoder_mod.pretrain(
        corpus, view.vocab, view.stem_ids(), view.analysis_ids(),
        encoder_mod.PretrainConfig(d=16, epochs=8, seed=2))
    params, _ = encoder_mod.fine_tune(
        params, pairs, corpus, view.stem_ids(),
        encoder_mod.FinetuneConfig(epochs=3, n_negatives=6, seed=2))
    return corpus, truth, pairs, view.vocab, params
