#include "mh/apps/wordcount.h"

#include <gtest/gtest.h>

#include <cctype>

#include "apps_test_util.h"
#include "mh/apps/select_max.h"
#include "mh/common/rng.h"
#include "mh/common/strings.h"
#include "mh/data/text_corpus.h"

namespace mh::apps {
namespace {

using testutil::LocalFsFixture;

class WordCountTest : public LocalFsFixture {};

/// The mapper's original tokenizer, kept as the oracle for the in-place
/// scan: split on whitespace, trim characters that are neither alphanumeric
/// nor an apostrophe off both ends, lower-case, drop empty words.
std::vector<std::string> oracleWords(std::string_view line) {
  const auto is_word_char = [](char c) {
    return std::isalnum(static_cast<unsigned char>(c)) || c == '\'';
  };
  std::vector<std::string> words;
  for (const auto& token : splitWhitespace(line)) {
    size_t begin = 0;
    size_t end = token.size();
    while (begin < end && !is_word_char(token[begin])) ++begin;
    while (end > begin && !is_word_char(token[end - 1])) --end;
    std::string word =
        toLowerAscii(std::string_view(token).substr(begin, end - begin));
    if (!word.empty()) words.push_back(std::move(word));
  }
  return words;
}

/// Maps every line through ONE mapper instance (so its reused word buffer
/// carries over between lines) and checks each line's emissions against
/// the oracle: the same words, in order, each with the count 1.
void expectMapperMatchesOracle(const std::vector<std::string>& lines) {
  Config conf;
  mr::Counters counters;
  std::vector<mr::KeyValue> emitted;
  mr::TaskContext ctx(conf, counters, [&](Bytes key, Bytes value) {
    emitted.push_back({std::move(key), std::move(value)});
  });
  WordCountMapper mapper;
  const Bytes one = mr::MrCodec<int64_t>::enc(1);
  for (const std::string& line : lines) {
    emitted.clear();
    mapper.map({}, line, ctx);
    const auto expected = oracleWords(line);
    ASSERT_EQ(emitted.size(), expected.size()) << "line: " << line;
    for (size_t i = 0; i < expected.size(); ++i) {
      EXPECT_EQ(emitted[i].key, expected[i]) << "line: " << line;
      EXPECT_EQ(emitted[i].value, one);
    }
  }
}

TEST(WordCountTokenizerTest, MatchesOracleOnEdgeCases) {
  using namespace std::string_literals;
  expectMapperMatchesOracle({
      "",
      " \t\v\f\r\n ",
      "a\tb\vc\fd\re\nf g",
      "\tLeading and trailing\r",
      "!!! ... ,,, --- ?!",
      "'tis rock'n'roll' '' ' \"quoted\" 'single'",
      "don't DON'T Don'T ''hello''",
      "UPPER lower MiXeD 123 A1b2C3",
      "(parenthesised) [bracketed] {braced} <angled>",
      "mid-word punctuation: e.g. a.b.c well...then",
      "nul\0inside \0\0 a\0"s,
      "high \x80\xff bytes \xc3\xa9t\xc3\xa9 caf\xc3\xa9!",
      "averyveryveryverylongwordthatdoesnotfitinsso short",
      "x",
  });
}

TEST(WordCountTokenizerTest, MatchesOracleOnRandomBytes) {
  Rng rng(20261018);
  std::vector<std::string> lines;
  for (int i = 0; i < 2000; ++i) {
    std::string line(rng.uniform(120), '\0');
    for (char& c : line) c = static_cast<char>(rng.uniform(256));
    lines.push_back(std::move(line));
  }
  expectMapperMatchesOracle(lines);
}

TEST(WordCountTokenizerTest, MatchesOracleOnWordLikeRandomLines) {
  // Mostly letters, with whitespace, punctuation and apostrophes often
  // enough that tokens form and their edges get trimmed.
  static const char kBytes[] = "aZq'x9 \t\v\f\r.,!-\"'E\xc3";
  Rng rng(7);
  std::vector<std::string> lines;
  for (int i = 0; i < 2000; ++i) {
    std::string line(rng.uniform(80), '\0');
    for (char& c : line) c = kBytes[rng.uniform(sizeof(kBytes) - 1)];
    lines.push_back(std::move(line));
  }
  expectMapperMatchesOracle(lines);
}

TEST_F(WordCountTest, NormalizesCaseAndPunctuation) {
  fs_->writeFile(p("in.txt"), "The quick, QUICK fox. Don't stop... don't!\n");
  ASSERT_TRUE(run(makeWordCountJob({p("in.txt")}, p("out"))).succeeded());
  const auto out = readOutput(p("out"));
  EXPECT_EQ(out.at("the"), "1");
  EXPECT_EQ(out.at("quick"), "2");
  EXPECT_EQ(out.at("fox"), "1");
  EXPECT_EQ(out.at("don't"), "2");
  EXPECT_FALSE(out.contains("fox."));
}

TEST_F(WordCountTest, MatchesGeneratorGroundTruth) {
  data::TextCorpusGenerator gen(
      {.seed = 21, .vocabulary_size = 200, .target_bytes = 100'000});
  fs_->writeFile(p("corpus.txt"), gen.generate());

  const auto result =
      run(makeWordCountJob({p("corpus.txt")}, p("out"), true, 3));
  ASSERT_TRUE(result.succeeded()) << result.error;

  const auto out = readOutput(p("out"));
  uint64_t checked = 0;
  for (size_t rank = 0; rank < gen.vocabularySize(); ++rank) {
    const auto expected = gen.lastCounts()[rank];
    if (expected == 0) continue;
    ASSERT_TRUE(out.contains(gen.word(rank))) << gen.word(rank);
    EXPECT_EQ(out.at(gen.word(rank)), std::to_string(expected));
    ++checked;
  }
  EXPECT_GT(checked, 100u);
}

TEST_F(WordCountTest, CombinerPreservesAnswerCutsShuffle) {
  data::TextCorpusGenerator gen(
      {.seed = 22, .vocabulary_size = 100, .target_bytes = 60'000});
  fs_->writeFile(p("corpus.txt"), gen.generate());

  const auto plain =
      run(makeWordCountJob({p("corpus.txt")}, p("out_p"), false));
  const auto combined =
      run(makeWordCountJob({p("corpus.txt")}, p("out_c"), true));
  ASSERT_TRUE(plain.succeeded());
  ASSERT_TRUE(combined.succeeded());
  EXPECT_EQ(readOutput(p("out_p")), readOutput(p("out_c")));
  EXPECT_LT(combined.counters.value(mr::counters::kShuffleGroup,
                                    mr::counters::kShuffleBytes),
            plain.counters.value(mr::counters::kShuffleGroup,
                                 mr::counters::kShuffleBytes));
}

TEST_F(WordCountTest, TopWordViaSelectMaxChain) {
  // The Fall-2012 assignment: wordcount, then select the max — a job chain.
  data::TextCorpusGenerator gen(
      {.seed = 23, .vocabulary_size = 500, .zipf_exponent = 1.2,
       .target_bytes = 80'000});
  fs_->writeFile(p("corpus.txt"), gen.generate());
  ASSERT_TRUE(run(makeWordCountJob({p("corpus.txt")}, p("counts"))).succeeded());
  ASSERT_TRUE(run(makeSelectMaxJob({p("counts")}, p("top"))).succeeded());

  const auto out = readOutput(p("top"));
  ASSERT_EQ(out.size(), 1u);
  const auto [word, count] = gen.topWord();
  ASSERT_TRUE(out.contains(word)) << "expected top word " << word;
  EXPECT_EQ(out.at(word), std::to_string(count));
}

TEST_F(WordCountTest, EmptyInputFileYieldsEmptyOutput) {
  fs_->writeFile(p("in.txt"), "\n\n\n");
  ASSERT_TRUE(run(makeWordCountJob({p("in.txt")}, p("out"))).succeeded());
  EXPECT_TRUE(readOutput(p("out")).empty());
}

TEST_F(WordCountTest, SelectMaxTieBreaksBySmallerKey) {
  fs_->writeFile(p("counts.txt"), "b\t5\na\t5\nc\t4\n");
  ASSERT_TRUE(run(makeSelectMaxJob({p("counts.txt")}, p("top"))).succeeded());
  const auto out = readOutput(p("top"));
  ASSERT_EQ(out.size(), 1u);
  EXPECT_TRUE(out.contains("a"));
}

TEST_F(WordCountTest, SelectMaxIgnoresMalformedLines) {
  fs_->writeFile(p("counts.txt"), "good\t3\nnotab\nbad\tNaNish?\nx\t7\n");
  ASSERT_TRUE(run(makeSelectMaxJob({p("counts.txt")}, p("top"))).succeeded());
  const auto out = readOutput(p("top"));
  ASSERT_EQ(out.size(), 1u);
  EXPECT_TRUE(out.contains("x"));
}

}  // namespace
}  // namespace mh::apps
