#include "util/kvtext.hpp"

#include <algorithm>
#include <fstream>
#include <sstream>

#include "util/error.hpp"
#include "util/fs.hpp"
#include "util/strings.hpp"

namespace uucs {

std::size_t KvRecord::index_of(const std::string& key) const {
  for (std::size_t i = 0; i < keys_.size(); ++i) {
    if (keys_[i] == key) return i;
  }
  return std::string::npos;
}

bool KvRecord::has(const std::string& key) const {
  return index_of(key) != std::string::npos;
}

void KvRecord::set(const std::string& key, std::string value) {
  UUCS_CHECK_MSG(key.find('=') == std::string::npos &&
                     key.find('\n') == std::string::npos && !trim(key).empty(),
                 "invalid kv key");
  UUCS_CHECK_MSG(value.find('\n') == std::string::npos, "kv values are single-line");
  const std::size_t i = index_of(key);
  if (i == std::string::npos) {
    keys_.push_back(key);
    values_.push_back(std::move(value));
  } else {
    values_[i] = std::move(value);
  }
}

void KvRecord::set_double(const std::string& key, double value) {
  std::string s;
  append_double(s, value);
  set(key, std::move(s));
}

void KvRecord::set_int(const std::string& key, std::int64_t value) {
  set(key, std::to_string(value));
}

void KvRecord::set_bool(const std::string& key, bool value) {
  set(key, value ? "true" : "false");
}

void KvRecord::set_doubles(const std::string& key, const std::vector<double>& values) {
  std::string s;
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i) s += ',';
    append_double(s, values[i]);
  }
  set(key, std::move(s));
}

const std::string& KvRecord::get(const std::string& key) const {
  const std::size_t i = index_of(key);
  if (i == std::string::npos) {
    throw ParseError("missing key '" + key + "' in [" + type_ + "]");
  }
  return values_[i];
}

double KvRecord::get_double(const std::string& key) const {
  const auto v = parse_double(get(key));
  if (!v) throw ParseError("key '" + key + "' is not a number: " + get(key));
  return *v;
}

std::int64_t KvRecord::get_int(const std::string& key) const {
  const auto v = parse_int(get(key));
  if (!v) throw ParseError("key '" + key + "' is not an integer: " + get(key));
  return *v;
}

bool KvRecord::get_bool(const std::string& key) const {
  const auto v = parse_bool(get(key));
  if (!v) throw ParseError("key '" + key + "' is not a boolean: " + get(key));
  return *v;
}

std::vector<double> KvRecord::get_doubles(const std::string& key) const {
  std::vector<double> out;
  parse_double_list(get(key), key, out);
  return out;
}

std::optional<std::string> KvRecord::find(const std::string& key) const {
  const std::size_t i = index_of(key);
  if (i == std::string::npos) return std::nullopt;
  return values_[i];
}

double KvRecord::get_double_or(const std::string& key, double dflt) const {
  return has(key) ? get_double(key) : dflt;
}

std::int64_t KvRecord::get_int_or(const std::string& key, std::int64_t dflt) const {
  return has(key) ? get_int(key) : dflt;
}

std::string KvRecord::get_or(const std::string& key, const std::string& dflt) const {
  return has(key) ? get(key) : dflt;
}

void parse_double_list(std::string_view raw, std::string_view key,
                       std::vector<double>& out) {
  out.clear();
  if (trim(raw).empty()) return;
  // Sized once: a stored record keeps this vector.
  out.reserve(static_cast<std::size_t>(std::count(raw.begin(), raw.end(), ',')) + 1);
  // Same token boundaries as split(raw, ','): empty fields kept, tokens
  // untrimmed (parse_double trims; the error message shows the raw token).
  std::size_t start = 0;
  for (std::size_t i = 0; i <= raw.size(); ++i) {
    if (i == raw.size() || raw[i] == ',') {
      const std::string_view tok = raw.substr(start, i - start);
      const auto v = parse_double(tok);
      if (!v) {
        throw ParseError("bad number '" + std::string(tok) + "' in list key '" +
                         std::string(key) + "'");
      }
      out.push_back(*v);
      start = i + 1;
    }
  }
}

std::string_view KvDoc::Rec::type() const { return doc_->recs_[index_].type; }

std::size_t KvDoc::Rec::size() const { return doc_->recs_[index_].count; }

std::string_view KvDoc::Rec::key_at(std::size_t i) const {
  return doc_->pairs_[doc_->recs_[index_].first + i].key;
}

std::string_view KvDoc::Rec::value_at(std::size_t i) const {
  return doc_->pairs_[doc_->recs_[index_].first + i].value;
}

bool KvDoc::Rec::has(std::string_view key) const {
  return find(key).has_value();
}

std::optional<std::string_view> KvDoc::Rec::find(std::string_view key) const {
  const RecSpan& span = doc_->recs_[index_];
  for (std::size_t i = 0; i < span.count; ++i) {
    const Pair& p = doc_->pairs_[span.first + i];
    if (p.key == key) return p.value;
  }
  return std::nullopt;
}

std::string_view KvDoc::Rec::get(std::string_view key) const {
  const auto v = find(key);
  if (!v) {
    throw ParseError("missing key '" + std::string(key) + "' in [" +
                     std::string(type()) + "]");
  }
  return *v;
}

double KvDoc::Rec::get_double(std::string_view key) const {
  const std::string_view raw = get(key);
  const auto v = parse_double(raw);
  if (!v) {
    throw ParseError("key '" + std::string(key) +
                     "' is not a number: " + std::string(raw));
  }
  return *v;
}

std::int64_t KvDoc::Rec::get_int(std::string_view key) const {
  const std::string_view raw = get(key);
  const auto v = parse_int(raw);
  if (!v) {
    throw ParseError("key '" + std::string(key) +
                     "' is not an integer: " + std::string(raw));
  }
  return *v;
}

bool KvDoc::Rec::get_bool(std::string_view key) const {
  const std::string_view raw = get(key);
  const auto v = parse_bool(raw);
  if (!v) {
    throw ParseError("key '" + std::string(key) +
                     "' is not a boolean: " + std::string(raw));
  }
  return *v;
}

std::vector<double> KvDoc::Rec::get_doubles(std::string_view key) const {
  std::vector<double> out;
  parse_double_list(get(key), key, out);
  return out;
}

double KvDoc::Rec::get_double_or(std::string_view key, double dflt) const {
  return has(key) ? get_double(key) : dflt;
}

std::int64_t KvDoc::Rec::get_int_or(std::string_view key,
                                    std::int64_t dflt) const {
  return has(key) ? get_int(key) : dflt;
}

std::string KvDoc::Rec::get_or(std::string_view key,
                               std::string_view dflt) const {
  const auto v = find(key);
  return std::string(v ? *v : dflt);
}

KvRecord KvDoc::Rec::materialize() const {
  KvRecord rec{std::string(type())};
  const std::size_t n = size();
  for (std::size_t i = 0; i < n; ++i) {
    rec.set(std::string(key_at(i)), std::string(value_at(i)));
  }
  return rec;
}

void KvDoc::parse(std::string_view text) {
  pairs_.clear();
  recs_.clear();
  std::size_t lineno = 0;
  std::size_t pos = 0;
  // Line loop matches std::getline: '\n' separates, a final unterminated
  // segment still counts, a trailing '\n' adds no empty line.
  while (pos < text.size()) {
    const std::size_t nl = text.find('\n', pos);
    const std::size_t end = nl == std::string_view::npos ? text.size() : nl;
    const std::string_view line = text.substr(pos, end - pos);
    pos = end + 1;
    ++lineno;

    const std::string_view t = trim(line);
    if (t.empty() || t.front() == '#') continue;
    if (t.front() == '[') {
      if (t.back() != ']') {
        throw ParseError(strprintf("line %zu: unterminated record header", lineno));
      }
      const std::string_view name = trim(t.substr(1, t.size() - 2));
      if (name.empty()) {
        throw ParseError(strprintf("line %zu: empty record type", lineno));
      }
      recs_.push_back({name, pairs_.size(), 0});
      continue;
    }
    const auto eq = t.find('=');
    if (eq == std::string_view::npos) {
      throw ParseError(strprintf("line %zu: expected 'key = value'", lineno));
    }
    if (recs_.empty()) {
      throw ParseError(strprintf("line %zu: key/value before any [record]", lineno));
    }
    const std::string_view key = trim(t.substr(0, eq));
    if (key.empty()) throw ParseError(strprintf("line %zu: empty key", lineno));
    RecSpan& cur = recs_.back();
    for (std::size_t i = 0; i < cur.count; ++i) {
      if (pairs_[cur.first + i].key == key) {
        throw ParseError(strprintf("line %zu: duplicate key '%s'", lineno,
                                   std::string(key).c_str()));
      }
    }
    pairs_.push_back({key, trim(t.substr(eq + 1))});
    ++cur.count;
  }
}

void kv_serialize_record_into(const KvRecord& record, std::string& out) {
  out.push_back('[');
  out.append(record.type());
  out.append("]\n");
  const std::size_t n = record.size();
  for (std::size_t i = 0; i < n; ++i) {
    out.append(record.key_at(i));
    out.append(" = ");
    out.append(record.value_at(i));
    out.push_back('\n');
  }
  out.push_back('\n');
}

void kv_serialize_into(const std::vector<KvRecord>& records, std::string& out) {
  for (const auto& rec : records) kv_serialize_record_into(rec, out);
}

std::string kv_serialize(const std::vector<KvRecord>& records) {
  std::string out;
  kv_serialize_into(records, out);
  return out;
}

std::vector<KvRecord> kv_parse(std::string_view text) {
  KvDoc doc;
  doc.parse(text);
  std::vector<KvRecord> records;
  records.reserve(doc.size());
  for (std::size_t i = 0; i < doc.size(); ++i) {
    records.push_back(doc.at(i).materialize());
  }
  return records;
}

std::vector<KvRecord> kv_load_file(const std::string& path) {
  std::ifstream f(path);
  if (!f) throw SystemError("cannot open " + path);
  std::ostringstream buf;
  buf << f.rdbuf();
  try {
    return kv_parse(buf.str());
  } catch (const ParseError& e) {
    throw ParseError(path + ": " + e.what());
  }
}

void kv_save_file(const std::string& path, const std::vector<KvRecord>& records) {
  // Atomic + durable (tmp + fsync + rename): snapshot files must never be
  // caught mid-truncate by a crash, because save() compacts the journal
  // that would otherwise protect their contents.
  write_file(path, kv_serialize(records));
}

}  // namespace uucs
