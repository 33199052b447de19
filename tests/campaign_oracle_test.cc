// The fault campaigns' commit oracle must fire on every way a commit set
// can go wrong: a lost commit, a phantom, a commit applied twice, a
// changed payload, an undecodable payload, and a document that does not
// equal the replay of its commits.

#include <cstring>
#include <string>
#include <vector>

#include "fuzz/campaign.h"
#include "gtest/gtest.h"
#include "node/document.h"
#include "tamix/bib_generator.h"

namespace xtc {
namespace {

RecoveredCommit Record(uint64_t seq, TxType type, uint64_t body_seed) {
  std::string payload(12, '\0');
  const uint32_t t = static_cast<uint32_t>(type);
  std::memcpy(payload.data(), &t, sizeof(t));
  std::memcpy(payload.data() + 4, &body_seed, sizeof(body_seed));
  return RecoveredCommit{100 + seq, seq, payload};
}

const std::vector<CommittedTx> kObserved = {
    {1, TxType::kQueryBook, 11}, {2, TxType::kChapter, 22}};

Status Check(const std::vector<RecoveredCommit>& found) {
  return CheckCommits(CampaignRunConfig(Campaign::kCrash, 1), kObserved,
                      found, nullptr);
}

TEST(CampaignOracleTest, AcceptsTheExactSetInAnyOrder) {
  EXPECT_TRUE(Check({Record(2, TxType::kChapter, 22),
                     Record(1, TxType::kQueryBook, 11)})
                  .ok());
}

TEST(CampaignOracleTest, NamesTheFirstLostAndPhantomSeq) {
  const Status lost = Check({Record(1, TxType::kQueryBook, 11)});
  EXPECT_NE(lost.message().find("missing (first seq 2)"), std::string::npos)
      << lost.message();
  const Status phantom = Check({Record(1, TxType::kQueryBook, 11),
                                Record(2, TxType::kChapter, 22),
                                Record(3, TxType::kChapter, 33)});
  EXPECT_NE(phantom.message().find("no worker observed (first seq 3)"),
            std::string::npos)
      << phantom.message();
}

TEST(CampaignOracleTest, RejectsADuplicateSeq) {
  const Status st = Check({Record(1, TxType::kQueryBook, 11),
                           Record(2, TxType::kChapter, 22),
                           Record(2, TxType::kChapter, 22)});
  EXPECT_NE(st.message().find("seq 2 appears twice"), std::string::npos)
      << st.message();
}

TEST(CampaignOracleTest, RejectsAChangedOrMalformedPayload) {
  EXPECT_FALSE(Check({Record(1, TxType::kQueryBook, 11),
                      Record(2, TxType::kChapter, 23)})
                   .ok());
  RecoveredCommit short_payload = Record(2, TxType::kChapter, 22);
  short_payload.payload.resize(8);
  EXPECT_TRUE(
      Check({Record(1, TxType::kQueryBook, 11), short_payload}).IsDataLoss());
  RecoveredCommit bad_type = Record(2, TxType::kChapter, 22);
  bad_type.payload[0] = static_cast<char>(kNumTxTypes);
  EXPECT_TRUE(
      Check({Record(1, TxType::kQueryBook, 11), bad_type}).IsDataLoss());
}

TEST(CampaignOracleTest, RejectsADocumentThatIsNotTheReplay) {
  // A freshly generated bib is the replay of zero commits, but not of a
  // committed TAdelBook.
  const RunConfig run = CampaignRunConfig(Campaign::kCrash, 1);
  Document doc(run.storage);
  ASSERT_TRUE(GenerateBib(&doc, run.bib).ok());
  EXPECT_TRUE(CheckCommits(run, {}, {}, &doc).ok());
  const std::vector<CommittedTx> deleted = {{1, TxType::kDelBook, 7}};
  const Status st =
      CheckCommits(run, deleted, {Record(1, TxType::kDelBook, 7)}, &doc);
  EXPECT_NE(st.message().find("diverges from replay"), std::string::npos)
      << st.message();
}

}  // namespace
}  // namespace xtc
