import pytest

from svilab import analysis, pathsolver


@pytest.fixture
def fresh_pool():
    """No worker pool at the start of the test, and none forked during it
    left at its end: pool workers run the code as it stood when they were
    forked, so a pool forked under a monkeypatch must not serve later tests."""
    analysis.shutdown_pool()
    yield
    analysis.shutdown_pool()


@pytest.fixture
def cg_stops(monkeypatch):
    """The answers, in call order, of every `stop` callback handed to
    `pathsolver.conjugate_gradients` during the test: True where that CG
    stopped early."""
    answers = []
    cg = pathsolver.conjugate_gradients

    def watched(matvec, b, x0, maxiter, precond, stop=None):
        if stop is not None:
            ask = stop

            def stop(x, rnorm):
                answers.append(ask(x, rnorm))
                return answers[-1]

        return cg(matvec, b, x0, maxiter, precond, stop)

    monkeypatch.setattr(pathsolver, "conjugate_gradients", watched)
    return answers
