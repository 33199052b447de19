// Microbenchmarks for the storage substrate: B+-tree point operations
// and document navigation primitives. The navigation benchmarks also run
// on 4 threads, each on its own book, so that the document latch, the
// buffer pool's hit path and the per-thread leaf hints are exercised
// concurrently. BENCH_storage.json holds the committed baseline rows
// (--benchmark_format=json).

#include <benchmark/benchmark.h>

#include "node/document.h"
#include "tamix/bib_generator.h"

namespace xtc {
namespace {

std::unique_ptr<Document> SharedBib() {
  auto doc = std::make_unique<Document>();
  auto info = GenerateBib(doc.get(), BibConfig::Bench());
  if (!info.ok()) std::abort();
  return doc;
}

Document& Bib() {
  static Document* doc = SharedBib().release();
  return *doc;
}

void BM_BtreeInsert(benchmark::State& state) {
  for (auto _ : state) {
    state.PauseTiming();
    StorageOptions options;
    PageFile file(options);
    BufferManager bm(&file, options);
    BplusTree tree(&bm);
    state.ResumeTiming();
    for (int i = 0; i < 2000; ++i) {
      char key[16];
      std::snprintf(key, sizeof(key), "key%06d", i);
      (void)tree.Insert(key, "value");
    }
  }
  state.SetItemsProcessed(state.iterations() * 2000);
}
BENCHMARK(BM_BtreeInsert);

void BM_DocumentIdJump(benchmark::State& state) {
  Document& doc = Bib();
  int i = 0;
  for (auto _ : state) {
    std::string id = "b" + std::to_string(i++ % 500);
    benchmark::DoNotOptimize(doc.LookupId(id));
  }
}
BENCHMARK(BM_DocumentIdJump);

// A different book per thread (books b0, b1, ... are distinct subtrees).
Splid BookOf(Document& doc, const benchmark::State& state, int base) {
  return *doc.LookupId("b" + std::to_string(base + state.thread_index()));
}

void BM_DocumentFirstChild(benchmark::State& state) {
  Document& doc = Bib();
  Splid book = BookOf(doc, state, 0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(doc.FirstChild(book));
  }
}
BENCHMARK(BM_DocumentFirstChild);
BENCHMARK(BM_DocumentFirstChild)->Threads(4);

void BM_DocumentNextSibling(benchmark::State& state) {
  Document& doc = Bib();
  Splid book = BookOf(doc, state, 0);
  auto first = doc.FirstChild(book);
  Splid title = (**first).splid;
  for (auto _ : state) {
    benchmark::DoNotOptimize(doc.NextSibling(title));
  }
}
BENCHMARK(BM_DocumentNextSibling);
BENCHMARK(BM_DocumentNextSibling)->Threads(4);

void BM_DocumentSubtreeScan(benchmark::State& state) {
  Document& doc = Bib();
  Splid book = *doc.LookupId("b1");
  for (auto _ : state) {
    auto nodes = doc.Subtree(book);
    benchmark::DoNotOptimize(nodes);
  }
}
BENCHMARK(BM_DocumentSubtreeScan);

void BM_DocumentChildren(benchmark::State& state) {
  Document& doc = Bib();
  Splid book = BookOf(doc, state, 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(doc.Children(book));
  }
}
BENCHMARK(BM_DocumentChildren);
BENCHMARK(BM_DocumentChildren)->Threads(4);

}  // namespace
}  // namespace xtc

BENCHMARK_MAIN();
