#include "repair/chain_generator.h"

#include "util/logging.h"

namespace opcqa {

std::vector<Rational> CheckedProbabilities(
    const ChainGenerator& generator, const RepairingState& state,
    const std::vector<Operation>& extensions) {
  OPCQA_CHECK(!extensions.empty());
  std::vector<Rational> probs = generator.Probabilities(state, extensions);
  OPCQA_CHECK_EQ(probs.size(), extensions.size())
      << "generator '" << generator.name()
      << "' returned a distribution of the wrong size";
  // Accumulate the sum unreduced: Σ p_i == 1 iff num == den. A weight
  // whose denominator equals the running one adds its numerator; only a
  // new denominator cross-multiplies. Generators mostly emit one shared
  // denominator (1/k), so the check stays linear in the number of
  // extensions instead of multiplying out a product of all denominators.
  BigInt num(0);
  BigInt den(1);
  for (const Rational& p : probs) {
    OPCQA_CHECK(!p.is_negative())
        << "generator '" << generator.name() << "' returned probability "
        << p;
    if (p.is_zero()) continue;
    if (p.denominator() == den) {
      num += p.numerator();
    } else {
      num = num * p.denominator() + p.numerator() * den;
      den *= p.denominator();
    }
  }
  OPCQA_CHECK(num == den)
      << "generator '" << generator.name()
      << "' probabilities sum to " << Rational(num, den) << " at state "
      << state.ToString();
  return probs;
}

std::vector<Rational> UniformChainGenerator::Probabilities(
    const RepairingState& state,
    const std::vector<Operation>& extensions) const {
  (void)state;
  Rational share(1, static_cast<int64_t>(extensions.size()));
  return std::vector<Rational>(extensions.size(), share);
}

std::vector<Rational> DeletionOnlyUniformGenerator::Probabilities(
    const RepairingState& state,
    const std::vector<Operation>& extensions) const {
  size_t deletions = 0;
  for (const Operation& op : extensions) {
    if (op.is_remove()) ++deletions;
  }
  OPCQA_CHECK_GT(deletions, 0u)
      << "no deletion extension at a non-complete state: " << state.ToString();
  Rational share(1, static_cast<int64_t>(deletions));
  std::vector<Rational> probs;
  probs.reserve(extensions.size());
  for (const Operation& op : extensions) {
    probs.push_back(op.is_remove() ? share : Rational(0));
  }
  return probs;
}

}  // namespace opcqa
