#include "mh/apps/wordcount.h"

#include <array>
#include <cstdint>

namespace mh::apps {

namespace {

/// C-locale character classes, one table lookup per byte: `isspace` bytes
/// split tokens, and a token is trimmed to its first and last byte that
/// is `isalnum` or an apostrophe.
enum CharClass : uint8_t { kOther, kSpace, kWordChar };

constexpr std::array<CharClass, 256> kCharClass = [] {
  std::array<CharClass, 256> table{};
  for (const char c : {' ', '\t', '\n', '\v', '\f', '\r'}) {
    table[static_cast<uint8_t>(c)] = kSpace;
  }
  for (int c = '0'; c <= '9'; ++c) table[c] = kWordChar;
  for (int c = 'A'; c <= 'Z'; ++c) table[c] = kWordChar;
  for (int c = 'a'; c <= 'z'; ++c) table[c] = kWordChar;
  table[static_cast<uint8_t>('\'')] = kWordChar;
  return table;
}();

CharClass classOf(char c) { return kCharClass[static_cast<uint8_t>(c)]; }

/// C-locale `tolower`: only 'A'..'Z' change.
char toLower(char c) {
  return c >= 'A' && c <= 'Z' ? static_cast<char>(c - 'A' + 'a') : c;
}

}  // namespace

void WordCountMapper::map(std::string_view, std::string_view value,
                          mr::TaskContext& ctx) {
  static const Bytes kOne = mr::MrCodec<int64_t>::enc(1);
  // Scan the line in place: skip whitespace, take the token up to the next
  // whitespace, trim non-word bytes off both ends, and lower-case what is
  // left into the reused `word_`.
  const size_t n = value.size();
  size_t i = 0;
  while (i < n) {
    while (i < n && classOf(value[i]) == kSpace) ++i;
    size_t begin = i;
    while (i < n && classOf(value[i]) != kSpace) ++i;
    size_t end = i;
    while (begin < end && classOf(value[begin]) != kWordChar) ++begin;
    while (end > begin && classOf(value[end - 1]) != kWordChar) --end;
    if (begin == end) continue;
    word_.resize(end - begin);
    for (size_t k = begin; k < end; ++k) word_[k - begin] = toLower(value[k]);
    ctx.emit(word_, kOne);
  }
}

void WordCountCombiner::reduce(std::string_view key,
                               mr::ValuesIterator& values,
                               mr::TaskContext& ctx) {
  int64_t sum = 0;
  while (const auto v = values.nextTyped<int64_t>()) sum += *v;
  ctx.emit(Bytes(key), mr::MrCodec<int64_t>::enc(sum));
}

void WordCountReducer::reduce(std::string_view key,
                              mr::ValuesIterator& values,
                              mr::TaskContext& ctx) {
  int64_t sum = 0;
  while (const auto v = values.nextTyped<int64_t>()) sum += *v;
  ctx.emit(Bytes(key), std::to_string(sum));
}

mr::JobSpec makeWordCountJob(std::vector<std::string> inputs,
                             std::string output, bool with_combiner,
                             uint32_t num_reducers) {
  mr::JobSpec spec;
  spec.name = with_combiner ? "wordcount+combiner" : "wordcount";
  spec.input_paths = std::move(inputs);
  spec.output_dir = std::move(output);
  spec.num_reducers = num_reducers;
  spec.mapper = [] { return std::make_unique<WordCountMapper>(); };
  spec.reducer = [] { return std::make_unique<WordCountReducer>(); };
  if (with_combiner) {
    spec.combiner = [] { return std::make_unique<WordCountCombiner>(); };
  }
  return spec;
}

}  // namespace mh::apps
