// FlowTable: acquire/find/erase round trips, bounded occupancy, overflow
// chaining and rejection, a randomized differential against a plain model
// of the contract, and the lazy storage's footprint (counted through a
// replaced global operator new).
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <iterator>
#include <map>
#include <new>
#include <random>
#include <tuple>
#include <vector>

#include "core/flow_table.hpp"
#include "core/vfid.hpp"

#include "test_util.hpp"

using namespace bfc;

namespace {

std::size_t g_new_calls = 0;
std::size_t g_new_bytes = 0;

}  // namespace

void* operator new(std::size_t n) {
  ++g_new_calls;
  g_new_bytes += n;
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return operator new(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace {

constexpr std::size_t kChunkBuckets = 64;

// The table's bucket hash, restated: placement is part of the contract.
std::size_t bucket_of(std::uint32_t vfid, int egress, int prio,
                      std::size_t n_buckets) {
  return mix64((static_cast<std::uint64_t>(vfid) << 24) ^
               (static_cast<std::uint64_t>(egress) << 8) ^
               static_cast<std::uint64_t>(prio)) %
         n_buckets;
}

// The acquire/find/erase contract as plain arrays: a key lands in its
// bucket's lowest free way, else in an overflow spare chained to the
// bucket (spares handed out from a LIFO free list, initially in index
// order), else nothing and a reject. A location is a way (bucket * ways +
// w) or an overflow slot (kOvf + s); the test maps locations to the
// table's pointers and requires the mapping to stay fixed.
struct Model {
  using Key = std::tuple<std::uint32_t, int, int>;
  static constexpr long kOvf = 1L << 40;

  int ways;
  std::size_t n_buckets;
  std::vector<long> way_key;             // [bucket * ways + w] -> key id
  std::vector<std::vector<long>> chain;  // [bucket] -> overflow slots
  std::vector<long> ovf_key;             // [slot] -> key id
  std::vector<long> ovf_free;            // back = next spare
  std::vector<Key> keys;
  std::map<Key, long> key_id;
  std::int64_t rejects = 0;
  std::size_t live = 0;

  Model(int w, std::size_t buckets, std::size_t ovf)
      : ways(w),
        n_buckets(buckets),
        way_key(buckets * static_cast<std::size_t>(w), -1),
        chain(buckets),
        ovf_key(ovf, -1) {
    for (std::size_t s = ovf; s > 0; --s) {
      ovf_free.push_back(static_cast<long>(s - 1));
    }
  }

  long id(const Key& k) {
    auto [it, fresh] = key_id.emplace(k, static_cast<long>(keys.size()));
    if (fresh) keys.push_back(k);
    return it->second;
  }
  std::size_t bucket(const Key& k) const {
    return bucket_of(std::get<0>(k), std::get<1>(k), std::get<2>(k),
                     n_buckets);
  }

  // Location of the key, or -1.
  long find(const Key& k) {
    const long kid = id(k);
    const std::size_t b = bucket(k);
    for (int w = 0; w < ways; ++w) {
      const long loc = static_cast<long>(b) * ways + w;
      if (way_key[static_cast<std::size_t>(loc)] == kid) return loc;
    }
    for (const long s : chain[b]) {
      if (ovf_key[static_cast<std::size_t>(s)] == kid) return kOvf + s;
    }
    return -1;
  }

  long acquire(const Key& k, bool& created) {
    created = false;
    const long hit = find(k);
    if (hit >= 0) return hit;
    const long kid = id(k);
    const std::size_t b = bucket(k);
    for (int w = 0; w < ways; ++w) {
      const long loc = static_cast<long>(b) * ways + w;
      if (way_key[static_cast<std::size_t>(loc)] < 0) {
        way_key[static_cast<std::size_t>(loc)] = kid;
        created = true;
        ++live;
        return loc;
      }
    }
    if (ovf_free.empty()) {
      ++rejects;
      return -1;
    }
    const long s = ovf_free.back();
    ovf_free.pop_back();
    ovf_key[static_cast<std::size_t>(s)] = kid;
    chain[b].push_back(s);
    created = true;
    ++live;
    return kOvf + s;
  }

  void erase(long loc) {
    --live;
    if (loc < kOvf) {
      way_key[static_cast<std::size_t>(loc)] = -1;
      return;
    }
    const long s = loc - kOvf;
    const std::size_t b = bucket(keys[static_cast<std::size_t>(
        ovf_key[static_cast<std::size_t>(s)])]);
    auto& c = chain[b];
    for (auto it = c.begin(); it != c.end(); ++it) {
      if (*it == s) {
        c.erase(it);
        break;
      }
    }
    ovf_key[static_cast<std::size_t>(s)] = -1;
    ovf_free.push_back(s);
  }
};

// >= 10k seeded acquire/find/erase ops on a small table whose key space
// is ~5x its capacity, so buckets fill, the overflow pool runs dry and
// acquires are rejected. Every outcome (created flag, nullptr, rejects,
// size) must match the model, and every location must keep one pointer:
// bucket ways contiguous, overflow slots one array, nothing moving while
// in use (a tag written through the pointer must read back).
void differential() {
  const int ways = 4;
  const std::size_t n_buckets = 2 * kChunkBuckets;
  const std::size_t n_ovf = 24;
  FlowTable t(static_cast<int>(n_buckets) * ways, ways,
              static_cast<int>(n_ovf));
  Model m(ways, n_buckets, n_ovf);
  std::vector<FlowEntry*> bucket_base(n_buckets, nullptr);
  FlowEntry* ovf_base = nullptr;
  std::map<long, FlowEntry*> at;  // live location -> pointer
  std::map<long, std::int32_t> tag;
  std::int32_t next_tag = 1;

  const auto expect = [&](long loc, FlowEntry* e) {
    CHECK(e != nullptr);
    FlowEntry*& base = loc < Model::kOvf
                           ? bucket_base[static_cast<std::size_t>(loc / ways)]
                           : ovf_base;
    const long off = loc < Model::kOvf ? loc % ways : loc - Model::kOvf;
    if (base == nullptr) base = e - off;
    CHECK(e == base + off);
  };

  std::mt19937_64 rng(20240917);
  std::size_t dry_ops = 0;  // ops run with the overflow pool exhausted
  std::size_t full_bucket_hits = 0;
  for (int op = 0; op < 20000; ++op) {
    const std::uint64_t r = rng();
    const Model::Key k{static_cast<std::uint32_t>((r >> 8) % 700),
                       static_cast<int>((r >> 20) % 2),
                       static_cast<int>((r >> 24) % 2)};
    const int kind = static_cast<int>(r % 20);
    if (kind < 12) {  // acquire
      bool created = false;
      bool want_created = false;
      FlowEntry* e = t.acquire(std::get<0>(k), std::get<1>(k),
                               std::get<2>(k), created);
      const long loc = m.acquire(k, want_created);
      CHECK(created == want_created);
      if (loc < 0) {
        CHECK(e == nullptr);
        continue;
      }
      expect(loc, e);
      CHECK(e->vfid == std::get<0>(k) && e->egress == std::get<1>(k) &&
            e->prio == std::get<2>(k));
      if (created) {
        at[loc] = e;
        tag[loc] = next_tag;
        e->pkts = next_tag++;
        if (loc >= Model::kOvf) ++full_bucket_hits;
      } else {
        CHECK(at[loc] == e && e->pkts == tag[loc]);
      }
    } else if (kind < 17 && !at.empty()) {  // erase a live entry
      auto it = at.begin();
      std::advance(it, static_cast<long>((r >> 32) % at.size()));
      t.erase(it->second);
      m.erase(it->first);
      tag.erase(it->first);
      at.erase(it);
    } else {  // find
      FlowEntry* e = t.find(std::get<0>(k), std::get<1>(k), std::get<2>(k));
      const long loc = m.find(k);
      if (loc < 0) {
        CHECK(e == nullptr);
      } else {
        CHECK(at[loc] == e && e->pkts == tag[loc]);
      }
    }
    CHECK(t.size() == m.live);
    CHECK(t.overflow_rejects() == m.rejects);
    if (m.ovf_free.empty()) ++dry_ops;
  }
  // The run exercised what it claims to.
  CHECK(full_bucket_hits > 100);
  CHECK(dry_ops > 1000);
  CHECK(m.rejects > 100);
  for (const auto& [loc, e] : at) {
    const FlowEntry& x = *e;
    CHECK(t.find(x.vfid, x.egress, x.prio) == e && x.pkts == tag[loc]);
  }
  std::printf("differential vs model ok (%lld rejects)\n",
              static_cast<long long>(m.rejects));
}

// Keys in pairwise distinct buckets, in key order (default geometry).
std::vector<std::uint32_t> distinct_buckets(std::size_t n_buckets,
                                            std::size_t want) {
  std::vector<bool> seen(n_buckets, false);
  std::vector<std::uint32_t> out;
  for (std::uint32_t v = 0; out.size() < want; ++v) {
    const std::size_t b = bucket_of(v, 0, 0, n_buckets);
    if (!seen[b]) {
      seen[b] = true;
      out.push_back(v);
    }
  }
  return out;
}

// The per-bucket pool at the default switch geometry: pointers survive
// pool-block growth, a find never allocates, and one flow per chunk
// costs a fraction of what whole-chunk entry arrays did.
void lazy_storage() {
  const std::size_t n_buckets = 16384 / 4;
  {
    FlowTable t(16384, 4, 1024);
    const auto keys =
        distinct_buckets(n_buckets, 3 * FlowTable::kPoolBuckets + 1);
    std::vector<FlowEntry*> ptrs;
    bool created = false;
    for (std::size_t i = 0; i < keys.size(); ++i) {
      const std::size_t bytes = t.allocated_bytes();
      FlowEntry* e = t.acquire(keys[i], 0, 0, created);
      CHECK(e != nullptr && created);
      e->pkts = static_cast<std::int32_t>(i) + 1;
      ptrs.push_back(e);
      // A new pool block whenever the previous one is used up.
      if (i % FlowTable::kPoolBuckets == 0) CHECK(t.allocated_bytes() > bytes);
    }
    for (std::size_t i = 0; i < keys.size(); ++i) {
      CHECK(t.find(keys[i], 0, 0) == ptrs[i]);
      CHECK(ptrs[i]->pkts == static_cast<std::int32_t>(i) + 1);
    }
  }
  {
    // find() into an untouched bucket of a materialized chunk, or into a
    // chunk never materialized, allocates nothing.
    FlowTable t(16384, 4, 1024);
    bool created = false;
    const std::size_t before = g_new_calls;
    CHECK(t.acquire(7, 0, 0, created) != nullptr);
    CHECK(g_new_calls > before);  // the hook sees the chunk and pool block
    const std::size_t chunk = bucket_of(7, 0, 0, n_buckets) / kChunkBuckets;
    int same_chunk = 0;
    int other_chunk = 0;
    const std::size_t calls = g_new_calls;
    for (std::uint32_t v = 8; v < 4000; ++v) {
      const std::size_t b = bucket_of(v, 0, 0, n_buckets);
      if (b == bucket_of(7, 0, 0, n_buckets)) continue;
      CHECK(t.find(v, 0, 0) == nullptr);
      (b / kChunkBuckets == chunk ? same_chunk : other_chunk)++;
    }
    CHECK(g_new_calls == calls);
    CHECK(same_chunk > 0 && other_chunk > 0);
    CHECK(t.allocated_chunks() == 1);
  }
  {
    // One key in each of the 64 chunks: under a quarter of 64 whole-chunk
    // entry arrays (64 buckets x 4 ways of FlowEntry plus 64 chain heads
    // each), counted at operator new and by the table itself.
    std::vector<std::uint32_t> per_chunk(kChunkBuckets, 0);
    std::vector<bool> have(kChunkBuckets, false);
    std::size_t found = 0;
    for (std::uint32_t v = 0; found < kChunkBuckets; ++v) {
      const std::size_t c = bucket_of(v, 0, 0, n_buckets) / kChunkBuckets;
      if (!have[c]) {
        have[c] = true;
        per_chunk[c] = v;
        ++found;
      }
    }
    const std::size_t whole_chunk =
        kChunkBuckets * 4 * sizeof(FlowEntry) + kChunkBuckets * sizeof(void*);
    const std::size_t bound = kChunkBuckets * whole_chunk / 4;
    const std::size_t bytes = g_new_bytes;
    FlowTable t(16384, 4, 1024);
    bool created = false;
    for (const std::uint32_t v : per_chunk) {
      CHECK(t.acquire(v, 0, 0, created) != nullptr && created);
    }
    CHECK(t.allocated_chunks() == kChunkBuckets);
    // At least the 64 chunks' bucket pointers and chain heads were
    // counted (the operator new hook is live), and the total stays small.
    CHECK(g_new_bytes - bytes >= kChunkBuckets * 2 * kChunkBuckets *
                                     sizeof(FlowEntry*));
    CHECK(g_new_bytes - bytes < bound);
    CHECK(t.allocated_bytes() < bound);
    std::printf("64 chunks, one key each: %zu B allocated (old layout %zu B)\n",
                g_new_bytes - bytes, kChunkBuckets * whole_chunk);
  }
}

}  // namespace

int main() {
  differential();
  lazy_storage();
  {
    FlowTable t(1024, 4, 16);
    bool created = false;
    FlowEntry* e = t.acquire(42, 3, 0, created);
    CHECK(e != nullptr);
    CHECK(created);
    CHECK(t.size() == 1);

    // Same key: same entry, not created again.
    bool created2 = true;
    FlowEntry* e2 = t.acquire(42, 3, 0, created2);
    CHECK(e2 == e);
    CHECK(!created2);
    CHECK(t.find(42, 3, 0) == e);
    // Different egress is a different key.
    CHECK(t.find(42, 4, 0) == nullptr);

    t.erase(e);
    CHECK(t.size() == 0);
    CHECK(t.find(42, 3, 0) == nullptr);
  }

  {
    // Fill far beyond one bucket: the overflow pool chains, then rejects.
    // With 8 slots / 4 ways there are 2 buckets; 8 + 4 distinct keys can
    // exceed slots + overflow.
    FlowTable t(8, 4, 4);
    bool created = false;
    int stored = 0;
    for (std::uint32_t v = 0; v < 64; ++v) {
      if (t.acquire(v, 0, 0, created) != nullptr) ++stored;
    }
    CHECK(stored <= 12);             // bounded: never exceeds capacity
    CHECK(t.size() == static_cast<std::size_t>(stored));
    CHECK(t.overflow_rejects() > 0); // the rest were refused, not evicted

    // Everything stored is still findable (nothing was evicted).
    int found = 0;
    for (std::uint32_t v = 0; v < 64; ++v) {
      if (t.find(v, 0, 0) != nullptr) ++found;
    }
    CHECK(found == stored);
  }

  {
    // Erase of an overflow-chained entry relinks the chain and frees the
    // slot for reuse.
    FlowTable t(4, 4, 2);  // one bucket of 4 ways + 2 overflow
    bool created = false;
    FlowEntry* entries[6];
    for (std::uint32_t v = 0; v < 6; ++v) {
      entries[v] = t.acquire(v, 0, 0, created);
      CHECK(entries[v] != nullptr);
    }
    CHECK(t.acquire(100, 0, 0, created) == nullptr);
    t.erase(entries[4]);  // an overflow entry
    CHECK(t.find(4, 0, 0) == nullptr);
    CHECK(t.find(5, 0, 0) == entries[5]);
    FlowEntry* reused = t.acquire(100, 0, 0, created);
    CHECK(reused != nullptr);
    CHECK(created);
    CHECK(t.size() == 6);
  }

  {
    // Lazy chunk slab: a fresh table owns no entry memory; the first
    // acquire materializes exactly the chunk its bucket hashes into, and
    // entry pointers stay stable across further growth (the switch holds
    // them across the whole flow lifetime).
    FlowTable t(16384, 4, 1024);  // the default switch geometry
    CHECK(t.allocated_chunks() == 0);
    CHECK(t.size() == 0);
    bool created = false;
    FlowEntry* e = t.acquire(42, 3, 0, created);
    CHECK(e != nullptr && created);
    CHECK(t.allocated_chunks() == 1);
    CHECK(t.allocated_bytes() > 0);
    for (std::uint32_t v = 0; v < 512; ++v) t.acquire(v, 1, 0, created);
    CHECK(t.allocated_chunks() > 1);
    CHECK(t.find(42, 3, 0) == e);  // original pointer survived growth
    // A find for a key whose chunk never materialized allocates nothing.
    const std::size_t before = t.allocated_chunks();
    int missed = 0;
    for (std::uint32_t v = 0; v < 64; ++v) {
      if (t.find(v, 777, 0) == nullptr) ++missed;
    }
    CHECK(missed == 64);
    CHECK(t.allocated_chunks() == before);
  }
  std::printf("flow table ok\n");
  return 0;
}
