#include "fs/namespace.hpp"

#include <cassert>

#include "common/str.hpp"
#include "hash/hashes.hpp"

namespace memfss::fs {

namespace {
constexpr InodeId kRoot = 1;
}

Namespace::Namespace() {
  Node root;
  root.id = kRoot;
  root.is_dir = true;
  root.parent = kRoot;
  nodes_.emplace(kRoot, std::move(root));
}

const Namespace::Node* Namespace::get(InodeId id) const {
  auto it = nodes_.find(id);
  return it == nodes_.end() ? nullptr : &it->second;
}

Namespace::Node* Namespace::get(InodeId id) {
  auto it = nodes_.find(id);
  return it == nodes_.end() ? nullptr : &it->second;
}

Result<InodeId> Namespace::resolve(std::string_view path) const {
  InodeId cur = kRoot;
  for (const auto& part : split_path(path)) {
    const Node* n = get(cur);
    assert(n);
    if (!n->is_dir) return Error{Errc::not_a_directory, std::string(path)};
    auto it = n->children.find(part);
    if (it == n->children.end())
      return Error{Errc::not_found, std::string(path)};
    cur = it->second;
  }
  return cur;
}

Result<InodeId> Namespace::resolve_parent(std::string_view path,
                                          std::string* leaf) const {
  auto parts = split_path(path);
  if (parts.empty())
    return Error{Errc::invalid_argument, "path resolves to root"};
  *leaf = parts.back();
  parts.pop_back();
  return resolve("/" + join(parts, "/"));
}

Status Namespace::mkdir(std::string_view path) {
  std::string leaf;
  auto parent = resolve_parent(path, &leaf);
  if (!parent.ok()) return parent.error();
  Node* p = get(parent.value());
  if (!p->is_dir) return {Errc::not_a_directory, std::string(path)};
  if (p->children.count(leaf))
    return {Errc::already_exists, std::string(path)};
  Node d;
  d.id = next_id_++;
  d.is_dir = true;
  d.parent = p->id;
  d.name = leaf;
  p->children.emplace(leaf, d.id);
  nodes_.emplace(d.id, std::move(d));
  ++dir_count_;
  return {};
}

Status Namespace::mkdirs(std::string_view path) {
  std::string prefix;
  for (const auto& part : split_path(path)) {
    prefix += "/" + part;
    if (auto r = resolve(prefix); r.ok()) {
      const Node* n = get(r.value());
      if (!n->is_dir) return {Errc::not_a_directory, prefix};
      continue;
    }
    if (auto st = mkdir(prefix); !st.ok()) return st;
  }
  return {};
}

Result<InodeId> Namespace::create(std::string_view path,
                                  const FileAttr& attr) {
  if (attr.stripe_size == 0)
    return Error{Errc::invalid_argument, "stripe_size must be > 0"};
  std::string leaf;
  auto parent = resolve_parent(path, &leaf);
  if (!parent.ok()) return parent.error();
  Node* p = get(parent.value());
  if (!p->is_dir) return Error{Errc::not_a_directory, std::string(path)};
  if (p->children.count(leaf))
    return Error{Errc::already_exists, std::string(path)};
  Node f;
  f.id = next_id_++;
  f.is_dir = false;
  f.attr = attr;
  f.parent = p->id;
  f.name = leaf;
  const InodeId id = f.id;
  p->children.emplace(leaf, id);
  nodes_.emplace(id, std::move(f));
  ++file_count_;
  return id;
}

Result<Stat> Namespace::stat(std::string_view path) const {
  auto r = resolve(path);
  if (!r.ok()) return r.error();
  return stat(r.value());
}

Result<Stat> Namespace::stat(InodeId inode) const {
  const Node* n = get(inode);
  if (!n) return Error{Errc::not_found, strformat("inode %llu",
                                                  (unsigned long long)inode)};
  Stat s;
  s.inode = n->id;
  s.is_directory = n->is_dir;
  s.attr = n->attr;
  s.stripe_count =
      n->is_dir ? 0 : stripe_count(n->attr.size, n->attr.stripe_size);
  return s;
}

bool Namespace::exists(std::string_view path) const {
  return resolve(path).ok();
}

Status Namespace::set_size(InodeId inode, Bytes size) {
  Node* n = get(inode);
  if (!n) return {Errc::not_found, "inode"};
  if (n->is_dir) return {Errc::is_a_directory, "set_size on directory"};
  n->attr.size = size;
  return {};
}

Status Namespace::set_epoch(InodeId inode, std::uint32_t epoch) {
  Node* n = get(inode);
  if (!n) return {Errc::not_found, "inode"};
  if (n->is_dir) return {Errc::is_a_directory, "set_epoch on directory"};
  n->attr.epoch = epoch;
  return {};
}

std::vector<std::pair<std::string, Stat>> Namespace::list_files() const {
  std::vector<std::pair<std::string, Stat>> out;
  // Depth-first walk from the root; children maps are sorted already.
  struct Frame {
    InodeId id;
    std::string path;
  };
  std::vector<Frame> stack{{kRoot, ""}};
  while (!stack.empty()) {
    const Frame f = stack.back();
    stack.pop_back();
    const Node* n = get(f.id);
    if (!n->is_dir) {
      out.emplace_back(f.path, stat(f.id).value());
      continue;
    }
    // Push in reverse so the sorted order comes out of the stack.
    for (auto it = n->children.rbegin(); it != n->children.rend(); ++it)
      stack.push_back({it->second, f.path + "/" + it->first});
  }
  return out;
}

Result<std::vector<std::string>> Namespace::readdir(
    std::string_view path) const {
  auto r = resolve(path);
  if (!r.ok()) return r.error();
  const Node* n = get(r.value());
  if (!n->is_dir) return Error{Errc::not_a_directory, std::string(path)};
  std::vector<std::string> out;
  out.reserve(n->children.size());
  for (const auto& [name, id] : n->children) out.push_back(name);
  return out;  // std::map keeps them sorted
}

Result<Stat> Namespace::unlink(std::string_view path) {
  auto r = resolve(path);
  if (!r.ok()) return r.error();
  Node* n = get(r.value());
  if (n->is_dir) return Error{Errc::is_a_directory, std::string(path)};
  Stat s;
  s.inode = n->id;
  s.is_directory = false;
  s.attr = n->attr;
  s.stripe_count = stripe_count(n->attr.size, n->attr.stripe_size);
  Node* p = get(n->parent);
  p->children.erase(n->name);
  nodes_.erase(n->id);
  --file_count_;
  return s;
}

Status Namespace::rmdir(std::string_view path) {
  auto r = resolve(path);
  if (!r.ok()) return r.error();
  if (r.value() == kRoot) return {Errc::invalid_argument, "rmdir /"};
  Node* n = get(r.value());
  if (!n->is_dir) return {Errc::not_a_directory, std::string(path)};
  if (!n->children.empty()) return {Errc::not_empty, std::string(path)};
  Node* p = get(n->parent);
  p->children.erase(n->name);
  nodes_.erase(n->id);
  --dir_count_;
  return {};
}

Status Namespace::rename(std::string_view from, std::string_view to) {
  auto src = resolve(from);
  if (!src.ok()) return src.error();
  if (src.value() == kRoot) return {Errc::invalid_argument, "rename /"};
  std::string leaf;
  auto dst_parent = resolve_parent(to, &leaf);
  if (!dst_parent.ok()) return dst_parent.error();
  Node* dp = get(dst_parent.value());
  if (!dp->is_dir) return {Errc::not_a_directory, std::string(to)};
  if (dp->children.count(leaf)) return {Errc::already_exists, std::string(to)};
  // Reject moving a directory into its own subtree.
  for (InodeId cur = dp->id;;) {
    if (cur == src.value())
      return {Errc::invalid_argument, "rename into own subtree"};
    const Node* n = get(cur);
    if (n->parent == cur) break;  // reached root
    cur = n->parent;
  }
  Node* s = get(src.value());
  Node* sp = get(s->parent);
  sp->children.erase(s->name);
  s->parent = dp->id;
  s->name = leaf;
  dp->children.emplace(leaf, s->id);
  return {};
}

std::size_t Namespace::stripe_count(Bytes size, Bytes stripe_size) {
  assert(stripe_size > 0);
  if (size == 0) return 0;
  return static_cast<std::size_t>((size + stripe_size - 1) / stripe_size);
}

std::string Namespace::stripe_key(InodeId ino, std::size_t index) {
  return strformat("i%llu:%zu", static_cast<unsigned long long>(ino), index);
}

std::string Namespace::shard_key(std::string_view stripe_key, std::size_t j) {
  std::string out(stripe_key);
  out += ".s";
  out += std::to_string(j);
  return out;
}

std::uint64_t Namespace::stripe_key_digest(InodeId ino, std::size_t index) {
  // FNV-1a over the exact character sequence of stripe_key(), folded
  // incrementally: 'i', the decimal inode, ':', the decimal index.
  std::uint64_t h = hash::fnv1a_seed();
  h = hash::fnv1a_byte(h, 'i');
  h = hash::fnv1a_decimal(h, ino);
  h = hash::fnv1a_byte(h, ':');
  h = hash::fnv1a_decimal(h, index);
  return h;
}

namespace {
bool eat_number(std::string_view& s, std::uint64_t& out) {
  if (s.empty() || s.front() < '0' || s.front() > '9') return false;
  out = 0;
  while (!s.empty() && s.front() >= '0' && s.front() <= '9') {
    out = out * 10 + static_cast<std::uint64_t>(s.front() - '0');
    s.remove_prefix(1);
  }
  return true;
}
}  // namespace

std::optional<Namespace::StripeRef> Namespace::parse_stripe_key(
    std::string_view key) {
  // "i<ino>:<stripe>" with an optional ".s<shard>" suffix.
  if (key.empty() || key.front() != 'i') return std::nullopt;
  key.remove_prefix(1);
  std::uint64_t ino = 0, stripe = 0, shard = 0;
  if (!eat_number(key, ino)) return std::nullopt;
  if (key.empty() || key.front() != ':') return std::nullopt;
  key.remove_prefix(1);
  if (!eat_number(key, stripe)) return std::nullopt;
  StripeRef ref;
  ref.inode = ino;
  ref.stripe = static_cast<std::size_t>(stripe);
  if (key.empty()) return ref;
  if (key.size() < 3 || key[0] != '.' || key[1] != 's') return std::nullopt;
  key.remove_prefix(2);
  if (!eat_number(key, shard) || !key.empty()) return std::nullopt;
  ref.is_shard = true;
  ref.shard = static_cast<std::size_t>(shard);
  return ref;
}

}  // namespace memfss::fs
