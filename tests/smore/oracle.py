"""Test oracle for the trainer's one cross-instance decode.

``PerInstanceTrainer`` decodes each instance of the iteration batch with
its own :class:`BatchedEpisodeRunner` loop instead of one
:class:`MultiInstanceRunner` run.  Seeds are drawn from the trainer rng
in the same instance-major order, so for every K the sampled action
streams, and therefore the mean rewards, must match the production
trainer bitwise; parameters agree to BLAS-reassociation tolerance.
"""

from repro.smore import BatchedEpisodeRunner, TASNetTrainer
from repro.smore.critic import critic_features


class PerInstanceTrainer(TASNetTrainer):
    """TASNetTrainer decoding one instance per lock-step run."""

    def _rollouts(self, batch_instances):
        samples = []
        for instance in batch_instances:
            env = self._env(instance)
            features = critic_features(instance, env.reset())
            seeds = self.rng.integers(
                0, 2**63 - 1, size=self.config.rollouts_per_instance)
            episodes = BatchedEpisodeRunner(env, self.policy).run(
                [(False, int(seed)) for seed in seeds], record_actions=True)
            for episode in episodes:
                log_prob_sum = None
                for record in episode.records:
                    log_prob_sum = (record.log_prob if log_prob_sum is None
                                    else log_prob_sum + record.log_prob)
                samples.append((episode.state.phi(), log_prob_sum, features,
                                len(episode.records), instance))
        return samples
