// Bit-rot simulation, as a tier-1 test: seed-reproducible episodes per
// scheme where silent data-at-rest corruption is injected after committed
// days, and the harness asserts detection (scrub or query path), quarantine,
// subset-correct degraded serving, and online self-heal back to exact oracle
// answers — plus the byte-identical-trace determinism bar for the family.

#include <gtest/gtest.h>

#include <cctype>
#include <string>

#include "testing/sim_harness.h"
#include "testing/test_env.h"

namespace wavekit {
namespace {

using testing::EpisodeResult;
using testing::ScenarioFamily;
using testing::SimConfig;
using testing::Simulator;

constexpr ScenarioFamily kBitRot{.bitrot = true};

SimConfig Config(uint64_t episodes) {
  SimConfig config;
  config.seed = testing::TestSeedBase();
  config.episodes = episodes;
  config.tmp_dir = ::testing::TempDir();
  return config;
}

class SimBitRotTest : public ::testing::TestWithParam<SchemeKind> {};

TEST_P(SimBitRotTest, SmokeEpisodesDetectAndHeal) {
  const Simulator simulator(Config(8));
  const EpisodeResult result = simulator.RunMany(GetParam(), kBitRot);
  EXPECT_TRUE(result.status.ok())
      << result.status << "\nrepro: " << result.repro << "\ntrace:\n"
      << result.trace;
}

TEST_P(SimBitRotTest, SameEpisodeProducesByteIdenticalTrace) {
  // Bit-rot episodes add corruption placement, scrub scheduling, and heal
  // decisions to the deterministic surface — all must replay byte-for-byte.
  const Simulator simulator(Config(1));
  for (uint64_t episode = 0; episode < 3; ++episode) {
    const EpisodeResult first =
        simulator.RunEpisode(GetParam(), episode, kBitRot);
    const EpisodeResult second =
        simulator.RunEpisode(GetParam(), episode, kBitRot);
    ASSERT_EQ(first.status.ToString(), second.status.ToString());
    EXPECT_EQ(first.trace, second.trace) << "episode " << episode;
  }
}

TEST_P(SimBitRotTest, EpisodesActuallyExerciseCorruption) {
  // Guard against a vacuous pass: the family's episodes must actually rot
  // something and heal it, visible in the trace.
  const Simulator simulator(Config(4));
  bool saw_rot = false;
  for (uint64_t episode = 0; episode < 4 && !saw_rot; ++episode) {
    const EpisodeResult result =
        simulator.RunEpisode(GetParam(), episode, kBitRot);
    ASSERT_TRUE(result.status.ok())
        << result.status << "\nrepro: " << result.repro;
    saw_rot = result.trace.find("quarantined=") != std::string::npos;
  }
  EXPECT_TRUE(saw_rot) << "no bit-rot quarantine across 4 episodes";
}

INSTANTIATE_TEST_SUITE_P(AllSchemes, SimBitRotTest,
                         ::testing::ValuesIn(kAllSchemeKinds),
                         [](const auto& info) {
                           std::string name = SchemeKindName(info.param);
                           for (char& c : name) {
                             if (!std::isalnum(static_cast<unsigned char>(c)))
                               c = '_';
                           }
                           return name;
                         });

}  // namespace
}  // namespace wavekit
