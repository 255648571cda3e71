//===- concepts/Lattice.cpp - Concept lattices -----------------------------===//
//
// Part of the Cable reproduction of "Debugging Temporal Specifications with
// Concept Analysis" (PLDI 2003). MIT license.
//
//===----------------------------------------------------------------------===//

#include "concepts/Lattice.h"

#include "concepts/Covers.h"
#include "support/AtomicFile.h"
#include "support/BuildInfo.h"
#include "support/Dot.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstring>
#include <numeric>
#include <unordered_map>

using namespace cable;

ConceptLattice ConceptLattice::fromConcepts(const Context &Ctx,
                                            std::vector<Concept> Concepts) {
  assert(!Concepts.empty() && "a concept lattice is never empty");
  ConceptLattice L;
  L.Concepts = std::move(Concepts);
  CoverLists Covers = computeCovers(Ctx, L.Concepts);
  L.Parents = std::move(Covers.Parents);
  L.Children = std::move(Covers.Children);
  L.locateTopAndBottom();
  return L;
}

ConceptLattice ConceptLattice::fromConcepts(std::vector<Concept> Concepts) {
  assert(!Concepts.empty() && "a concept lattice is never empty");
  ConceptLattice L;
  L.Concepts = std::move(Concepts);
  L.Parents.assign(L.Concepts.size(), {});
  L.Children.assign(L.Concepts.size(), {});
  // B covers A iff extent(A) < extent(B) and no C with
  // extent(A) < extent(C) < extent(B).
  size_t N = L.Concepts.size();
  std::vector<size_t> Card(N);
  for (size_t I = 0; I < N; ++I)
    Card[I] = L.Concepts[I].Extent.count();
  std::vector<NodeId> Order = coverScanOrder(Card);
  for (size_t AI = 0; AI < N; ++AI) {
    NodeId A = Order[AI];
    for (NodeId B : coversAt(L.Concepts, Order, Card, AI)) {
      L.Parents[A].push_back(B);
      L.Children[B].push_back(A);
    }
  }
  L.locateTopAndBottom();
  return L;
}

void ConceptLattice::locateTopAndBottom() {
  // Top has the unique maximal extent; bottom the unique minimal one.
  Top = 0;
  Bottom = 0;
  for (NodeId Id = 0; Id < Concepts.size(); ++Id) {
    if (Concepts[Top].Extent.isSubsetOf(Concepts[Id].Extent))
      Top = Id;
    if (Concepts[Id].Extent.isSubsetOf(Concepts[Bottom].Extent))
      Bottom = Id;
  }
  assert(Parents[Top].empty() && "top must have no parents");
  assert(Children[Bottom].empty() && "bottom must have no children");
}

std::vector<ConceptLattice::NodeId>
ConceptLattice::coverScanOrder(const std::vector<size_t> &Card) {
  std::vector<NodeId> Order(Card.size());
  std::iota(Order.begin(), Order.end(), 0);
  // The id tie-break makes the order a total one, so every cover
  // computation sorts its lists the same way.
  std::sort(Order.begin(), Order.end(), [&](NodeId A, NodeId B) {
    return Card[A] != Card[B] ? Card[A] < Card[B] : A < B;
  });
  return Order;
}

std::vector<ConceptLattice::NodeId>
ConceptLattice::coversAt(const std::vector<Concept> &Concepts,
                         const std::vector<NodeId> &Order,
                         const std::vector<size_t> &Card, size_t AI) {
  NodeId A = Order[AI];
  // Candidates: strictly larger extents containing extent(A), scanned in
  // ascending cardinality so accepted covers are found before anything
  // they are contained in.
  std::vector<NodeId> Covers;
  for (size_t BI = AI + 1; BI < Order.size(); ++BI) {
    NodeId B = Order[BI];
    if (Card[B] == Card[A])
      continue; // Equal cardinality can't be a strict superset.
    if (!Concepts[A].Extent.isSubsetOf(Concepts[B].Extent))
      continue;
    bool Dominated = false;
    for (NodeId C : Covers)
      if (Concepts[C].Extent.isSubsetOf(Concepts[B].Extent)) {
        Dominated = true;
        break;
      }
    if (!Dominated)
      Covers.push_back(B);
  }
  return Covers;
}

size_t ConceptLattice::numEdges() const {
  size_t N = 0;
  for (const auto &P : Parents)
    N += P.size();
  return N;
}

std::optional<ConceptLattice::NodeId>
ConceptLattice::findByExtent(const BitVector &Extent) const {
  for (NodeId Id = 0; Id < Concepts.size(); ++Id)
    if (Concepts[Id].Extent == Extent)
      return Id;
  return std::nullopt;
}

std::optional<ConceptLattice::NodeId>
ConceptLattice::findByIntent(const BitVector &Intent) const {
  for (NodeId Id = 0; Id < Concepts.size(); ++Id)
    if (Concepts[Id].Intent == Intent)
      return Id;
  return std::nullopt;
}

ConceptLattice::NodeId ConceptLattice::meet(NodeId A, NodeId B) const {
  // The meet's extent is the largest concept extent contained in
  // extent(A) & extent(B); because concept extents are closed under
  // intersection, that intersection is itself an extent of the *context*.
  // On a complete lattice it is present and is returned exactly. On a
  // truncated lattice it may be missing; fall back to the largest present
  // extent contained in the intersection (the bottom concept always
  // qualifies, so a best approximation exists).
  BitVector Want = Concepts[A].Extent & Concepts[B].Extent;
  std::optional<NodeId> Found = findByExtent(Want);
  if (Found)
    return *Found;
  NodeId Best = Bottom;
  size_t BestCard = Concepts[Bottom].Extent.count();
  for (NodeId Id = 0; Id < Concepts.size(); ++Id) {
    if (!Concepts[Id].Extent.isSubsetOf(Want))
      continue;
    size_t Card = Concepts[Id].Extent.count();
    if (Card > BestCard) {
      Best = Id;
      BestCard = Card;
    }
  }
  return Best;
}

ConceptLattice::NodeId ConceptLattice::join(NodeId A, NodeId B) const {
  // Dual of meet: sigma(X ∪ Y) = sigma(X) ∩ sigma(Y), so the join's intent
  // is exactly the intent intersection. Same truncation fallback on the
  // intent side (the top concept's intent is a subset of every intent).
  BitVector Want = Concepts[A].Intent & Concepts[B].Intent;
  std::optional<NodeId> Found = findByIntent(Want);
  if (Found)
    return *Found;
  NodeId Best = Top;
  size_t BestCard = Concepts[Top].Intent.count();
  for (NodeId Id = 0; Id < Concepts.size(); ++Id) {
    if (!Concepts[Id].Intent.isSubsetOf(Want))
      continue;
    size_t Card = Concepts[Id].Intent.count();
    if (Card > BestCard) {
      Best = Id;
      BestCard = Card;
    }
  }
  return Best;
}

std::vector<ConceptLattice::NodeId> ConceptLattice::topDownOrder() const {
  // Kahn's algorithm from top: a node is emitted once all parents are.
  std::vector<size_t> Pending(Concepts.size());
  std::vector<NodeId> Out;
  std::vector<NodeId> Ready;
  for (NodeId Id = 0; Id < Concepts.size(); ++Id) {
    Pending[Id] = Parents[Id].size();
    if (Pending[Id] == 0)
      Ready.push_back(Id);
  }
  while (!Ready.empty()) {
    NodeId Id = Ready.back();
    Ready.pop_back();
    Out.push_back(Id);
    for (NodeId C : Children[Id])
      if (--Pending[C] == 0)
        Ready.push_back(C);
  }
  assert(Out.size() == Concepts.size() && "cover relation has a cycle");
  return Out;
}

size_t ConceptLattice::height() const {
  std::vector<size_t> Depth(Concepts.size(), 0);
  size_t Max = 0;
  for (NodeId Id : topDownOrder()) {
    for (NodeId C : Children[Id])
      Depth[C] = std::max(Depth[C], Depth[Id] + 1);
    Max = std::max(Max, Depth[Id]);
  }
  return Max;
}

bool ConceptLattice::verify(const Context &Ctx, std::string *WhyNot) const {
  auto Fail = [&](const std::string &Msg) {
    if (WhyNot)
      *WhyNot = Msg;
    return false;
  };

  // 1. Every node is a concept: sigma(Extent) == Intent, tau(Intent) ==
  //    Extent.
  for (NodeId Id = 0; Id < Concepts.size(); ++Id) {
    const Concept &C = Concepts[Id];
    if (!(Ctx.sigma(C.Extent) == C.Intent))
      return Fail("node " + std::to_string(Id) + ": sigma(extent) != intent");
    if (!(Ctx.tau(C.Intent) == C.Extent))
      return Fail("node " + std::to_string(Id) + ": tau(intent) != extent");
  }

  // 2. No duplicate extents.
  std::unordered_map<BitVector, NodeId, BitVectorHash> Seen;
  for (NodeId Id = 0; Id < Concepts.size(); ++Id)
    if (!Seen.emplace(Concepts[Id].Extent, Id).second)
      return Fail("duplicate extent at node " + std::to_string(Id));

  // 3. Completeness: every closed extent appears. Closure of every subset
  //    is too expensive; instead check closure of every single object and
  //    of the empty and full sets, plus closure under pairwise
  //    intersection of known extents.
  {
    BitVector Empty(Ctx.numObjects());
    if (!Seen.count(Ctx.closeExtent(Empty)))
      return Fail("missing closure of the empty object set");
    BitVector Full(Ctx.numObjects());
    Full.setAll();
    if (!Seen.count(Ctx.closeExtent(Full)))
      return Fail("missing top concept");
    for (size_t O = 0; O < Ctx.numObjects(); ++O) {
      BitVector Single(Ctx.numObjects());
      Single.set(O);
      if (!Seen.count(Ctx.closeExtent(Single)))
        return Fail("missing closure of object " + std::to_string(O));
    }
    for (NodeId A = 0; A < Concepts.size(); ++A)
      for (NodeId B = static_cast<NodeId>(A + 1); B < Concepts.size(); ++B) {
        BitVector Meet = Concepts[A].Extent & Concepts[B].Extent;
        if (!Seen.count(Meet))
          return Fail("extents not closed under intersection (" +
                      std::to_string(A) + ", " + std::to_string(B) + ")");
      }
  }

  // 4. Cover edges are the transitive reduction of extent inclusion.
  for (NodeId A = 0; A < Concepts.size(); ++A) {
    for (NodeId P : Parents[A]) {
      if (!(Concepts[A].Extent.isSubsetOf(Concepts[P].Extent)) ||
          Concepts[A].Extent == Concepts[P].Extent)
        return Fail("cover edge not a strict inclusion");
      for (NodeId M = 0; M < Concepts.size(); ++M) {
        if (M == A || M == P)
          continue;
        if (Concepts[A].Extent.isSubsetOf(Concepts[M].Extent) &&
            Concepts[M].Extent.isSubsetOf(Concepts[P].Extent))
          return Fail("cover edge skips an intermediate concept");
      }
    }
    // And every true cover is present: count strict supersets with no
    // intermediate.
    for (NodeId B = 0; B < Concepts.size(); ++B) {
      if (A == B)
        continue;
      if (!Concepts[A].Extent.isSubsetOf(Concepts[B].Extent) ||
          Concepts[A].Extent == Concepts[B].Extent)
        continue;
      bool HasMid = false;
      for (NodeId M = 0; M < Concepts.size(); ++M) {
        if (M == A || M == B)
          continue;
        if (Concepts[A].Extent.isSubsetOf(Concepts[M].Extent) &&
            Concepts[M].Extent.isSubsetOf(Concepts[B].Extent)) {
          HasMid = true;
          break;
        }
      }
      bool EdgePresent =
          std::find(Parents[A].begin(), Parents[A].end(), B) !=
          Parents[A].end();
      if (!HasMid && !EdgePresent)
        return Fail("missing cover edge " + std::to_string(A) + " -> " +
                    std::to_string(B));
    }
  }
  return true;
}

std::string ConceptLattice::renderDot(
    std::string_view Name,
    const std::function<std::string(NodeId)> &NodeLabel) const {
  DotWriter W{std::string(Name)};
  W.addRaw("rankdir=TB;");
  for (NodeId Id = 0; Id < Concepts.size(); ++Id)
    W.addNode("c" + std::to_string(Id), NodeLabel(Id), "shape=box");
  // Draw parent -> child so more general concepts sit higher.
  for (NodeId Id = 0; Id < Concepts.size(); ++Id)
    for (NodeId C : Children[Id])
      W.addEdge("c" + std::to_string(Id), "c" + std::to_string(C));
  return W.str();
}

//===----------------------------------------------------------------------===//
// cable-lattice/1 artifact codec (docs/FORMATS.md)
//
// Layout, all integers little-endian:
//
//   preamble (40 bytes)
//     0  magic            "CABLELAT"
//     8  u32 format       1
//     12 u32 header_len   padded text-header length (multiple of 8)
//     16 u32 header_crc   crc32 of the padded header bytes
//     20 u32 body_crc     crc32 of the body bytes
//     24 u64 body_len
//     32 u64 reserved     0
//   header (header_len bytes)
//     `key value` lines, '\n'-padded to an 8-byte multiple
//   body (body_len bytes, 8-aligned in the file for mmap word access)
//     extents   C * ceil(NObj/64)  u64
//     intents   C * ceil(NAttr/64) u64
//     parent_offsets (C+1) u32, then parent_ids E u32
//     child_offsets  (C+1) u32, then child_ids  E u32
//
// Both adjacency lists are stored in their exact in-memory order so a
// deserialized lattice iterates covers — and therefore renders DOT,
// orders topDownOrder(), and inherits labels — bit-for-bit like the
// freshly built original.
//===----------------------------------------------------------------------===//

namespace {

constexpr char kLatticeMagic[8] = {'C', 'A', 'B', 'L', 'E', 'L', 'A', 'T'};
constexpr uint32_t kLatticeFormatVersion = 1;
constexpr size_t kPreambleSize = 40;

void appendLE32(std::string &Out, uint32_t V) {
  for (int B = 0; B < 4; ++B)
    Out.push_back(static_cast<char>((V >> (8 * B)) & 0xff));
}

void appendLE64(std::string &Out, uint64_t V) {
  for (int B = 0; B < 8; ++B)
    Out.push_back(static_cast<char>((V >> (8 * B)) & 0xff));
}

uint32_t readLE32(std::string_view Data, size_t Off) {
  uint32_t V = 0;
  for (int B = 0; B < 4; ++B)
    V |= static_cast<uint32_t>(static_cast<unsigned char>(Data[Off + B]))
         << (8 * B);
  return V;
}

uint64_t readLE64(std::string_view Data, size_t Off) {
  uint64_t V = 0;
  for (int B = 0; B < 8; ++B)
    V |= static_cast<uint64_t>(static_cast<unsigned char>(Data[Off + B]))
         << (8 * B);
  return V;
}

Status artifactError(const std::string &File, size_t Offset,
                     std::string What) {
  Diagnostic D;
  D.Level = Severity::Error;
  D.Code = ErrorCode::ParseError;
  D.File = File;
  D.Message = "cable-lattice artifact: " + std::move(What) +
              " (byte offset " + std::to_string(Offset) + ")";
  return Status::error(std::move(D));
}

/// One `key value` line of the text header.
std::optional<std::string_view> headerValue(std::string_view Header,
                                            std::string_view Key) {
  size_t Pos = 0;
  while (Pos < Header.size()) {
    size_t Eol = Header.find('\n', Pos);
    if (Eol == std::string_view::npos)
      Eol = Header.size();
    std::string_view Line = Header.substr(Pos, Eol - Pos);
    if (Line.size() > Key.size() && Line.substr(0, Key.size()) == Key &&
        Line[Key.size()] == ' ')
      return Line.substr(Key.size() + 1);
    Pos = Eol + 1;
  }
  return std::nullopt;
}

std::optional<uint64_t> headerNumber(std::string_view Header,
                                     std::string_view Key) {
  std::optional<std::string_view> V = headerValue(Header, Key);
  if (!V || V->empty())
    return std::nullopt;
  uint64_t N = 0;
  for (char C : *V) {
    if (C < '0' || C > '9')
      return std::nullopt;
    N = N * 10 + static_cast<uint64_t>(C - '0');
  }
  return N;
}

} // namespace

std::string ConceptLattice::serialize(const LatticeArtifactMeta &Meta) const {
  const size_t C = Concepts.size();
  const size_t EW = (Meta.NumObjects + 63) / 64;
  const size_t IW = (Meta.NumAttributes + 63) / 64;
  size_t E = 0;
  for (const std::vector<NodeId> &P : Parents)
    E += P.size();

  std::string Header;
  Header += "format cable-lattice/1\n";
  Header += "tool cable ";
  Header += buildinfo::kVersion;
  Header += "\n";
  Header += "context " + Meta.ContextHash + "\n";
  Header += "builder " + Meta.Builder + "\n";
  Header += "budget " + Meta.Budget + "\n";
  Header += "objects " + std::to_string(Meta.NumObjects) + "\n";
  Header += "attributes " + std::to_string(Meta.NumAttributes) + "\n";
  Header += "concepts " + std::to_string(C) + "\n";
  Header += "edges " + std::to_string(E) + "\n";
  Header += "top " + std::to_string(Top) + "\n";
  Header += "bottom " + std::to_string(Bottom) + "\n";
  Header += std::string("truncated ") + (Meta.Truncated ? "1" : "0") + "\n";
  // Pad with newlines so the body starts 8-aligned (the preamble is 40
  // bytes): mmap'd extent/intent words can then be read at natural
  // alignment straight out of the mapping.
  while (Header.size() % 8 != 0)
    Header += '\n';

  std::string Body;
  Body.reserve(C * (EW + IW) * 8 + (2 * C + 2 + 2 * E) * 4 + 8);
  for (const Concept &N : Concepts) {
    assert(N.Extent.size() == Meta.NumObjects && N.Extent.tailIsClean());
    for (size_t W = 0; W < EW; ++W)
      appendLE64(Body, N.Extent.words()[W]);
  }
  for (const Concept &N : Concepts) {
    assert(N.Intent.size() == Meta.NumAttributes && N.Intent.tailIsClean());
    for (size_t W = 0; W < IW; ++W)
      appendLE64(Body, N.Intent.words()[W]);
  }
  auto AppendAdjacency = [&](const std::vector<std::vector<NodeId>> &Adj) {
    uint32_t Off = 0;
    for (size_t I = 0; I <= C; ++I) {
      appendLE32(Body, Off);
      if (I < C)
        Off += static_cast<uint32_t>(Adj[I].size());
    }
    for (const std::vector<NodeId> &Ids : Adj)
      for (NodeId Id : Ids)
        appendLE32(Body, Id);
  };
  AppendAdjacency(Parents);
  AppendAdjacency(Children);
  while (Body.size() % 8 != 0)
    Body.push_back('\0');

  std::string Out;
  Out.reserve(kPreambleSize + Header.size() + Body.size());
  Out.append(kLatticeMagic, sizeof(kLatticeMagic));
  appendLE32(Out, kLatticeFormatVersion);
  appendLE32(Out, static_cast<uint32_t>(Header.size()));
  appendLE32(Out, crc32(Header));
  appendLE32(Out, crc32(Body));
  appendLE64(Out, Body.size());
  appendLE64(Out, 0);
  Out += Header;
  Out += Body;
  return Out;
}

StatusOr<ConceptLattice>
ConceptLattice::deserialize(std::string_view Bytes,
                            const LatticeArtifactMeta &Expect,
                            const std::string &File,
                            LatticeArtifactMeta *Got) {
  if (Bytes.size() < kPreambleSize)
    return artifactError(File, Bytes.size(),
                         "truncated preamble: " + std::to_string(Bytes.size()) +
                             " byte(s), need " + std::to_string(kPreambleSize));
  if (Bytes.compare(0, sizeof(kLatticeMagic),
                    std::string_view(kLatticeMagic, sizeof(kLatticeMagic))) !=
      0)
    return artifactError(File, 0, "bad magic, not a cable-lattice file");
  uint32_t Format = readLE32(Bytes, 8);
  if (Format != kLatticeFormatVersion)
    return artifactError(File, 8,
                         "unsupported format version " +
                             std::to_string(Format) + ", this build reads " +
                             std::to_string(kLatticeFormatVersion));
  uint64_t HeaderLen = readLE32(Bytes, 12);
  uint32_t HeaderCrc = readLE32(Bytes, 16);
  uint32_t BodyCrc = readLE32(Bytes, 20);
  uint64_t BodyLen = readLE64(Bytes, 24);
  if (kPreambleSize + HeaderLen + BodyLen != Bytes.size())
    return artifactError(
        File, 12,
        "section lengths disagree with the file size: header " +
            std::to_string(HeaderLen) + " + body " + std::to_string(BodyLen) +
            " + preamble != " + std::to_string(Bytes.size()));
  std::string_view Header = Bytes.substr(kPreambleSize, HeaderLen);
  if (crc32(Header) != HeaderCrc)
    return artifactError(File, 16, "header checksum mismatch");
  std::string_view Body = Bytes.substr(kPreambleSize + HeaderLen);

  // The header CRC held, so the stamped metadata is trustworthy from here.
  if (std::optional<std::string_view> F = headerValue(Header, "format");
      !F || *F != "cable-lattice/1")
    return artifactError(File, kPreambleSize, "header names a foreign format");
  LatticeArtifactMeta M;
  M.ContextHash = std::string(headerValue(Header, "context").value_or(""));
  M.Builder = std::string(headerValue(Header, "builder").value_or(""));
  M.Budget = std::string(headerValue(Header, "budget").value_or(""));
  std::optional<uint64_t> NObj = headerNumber(Header, "objects");
  std::optional<uint64_t> NAttr = headerNumber(Header, "attributes");
  std::optional<uint64_t> NumC = headerNumber(Header, "concepts");
  std::optional<uint64_t> NumE = headerNumber(Header, "edges");
  std::optional<uint64_t> TopId = headerNumber(Header, "top");
  std::optional<uint64_t> BottomId = headerNumber(Header, "bottom");
  std::optional<uint64_t> Trunc = headerNumber(Header, "truncated");
  if (!NObj || !NAttr || !NumC || !NumE || !TopId || !BottomId || !Trunc)
    return artifactError(File, kPreambleSize, "header is missing fields");
  M.NumObjects = *NObj;
  M.NumAttributes = *NAttr;
  M.Truncated = *Trunc != 0;
  if (Got)
    *Got = M;

  // Content-addressing checks: a stale rename or a reused key must be
  // caught before any body bytes are interpreted.
  if (!Expect.ContextHash.empty() && Expect.ContextHash != M.ContextHash)
    return artifactError(File, kPreambleSize,
                         "context hash mismatch: artifact " + M.ContextHash +
                             ", expected " + Expect.ContextHash);
  if (!Expect.Builder.empty() && Expect.Builder != M.Builder)
    return artifactError(File, kPreambleSize,
                         "builder mismatch: artifact '" + M.Builder +
                             "', expected '" + Expect.Builder + "'");
  if (!Expect.Budget.empty() && Expect.Budget != M.Budget)
    return artifactError(File, kPreambleSize,
                         "budget mismatch: artifact '" + M.Budget +
                             "', expected '" + Expect.Budget + "'");
  if (Expect.NumObjects && Expect.NumObjects != M.NumObjects)
    return artifactError(File, kPreambleSize, "object count mismatch");
  if (Expect.NumAttributes && Expect.NumAttributes != M.NumAttributes)
    return artifactError(File, kPreambleSize, "attribute count mismatch");

  if (crc32(Body) != BodyCrc)
    return artifactError(File, 20, "body checksum mismatch");

  const size_t C = *NumC;
  const size_t E = *NumE;
  if (C == 0)
    return artifactError(File, kPreambleSize, "empty lattice");
  if (*TopId >= C || *BottomId >= C)
    return artifactError(File, kPreambleSize, "top/bottom id out of range");
  const size_t EW = (M.NumObjects + 63) / 64;
  const size_t IW = (M.NumAttributes + 63) / 64;
  const size_t WordsLen = C * (EW + IW) * 8;
  const size_t AdjLen = 2 * ((C + 1) + E) * 4;
  const size_t NeedLen = (WordsLen + AdjLen + 7) / 8 * 8;
  if (Body.size() != NeedLen)
    return artifactError(File, kPreambleSize + HeaderLen,
                         "body length " + std::to_string(Body.size()) +
                             " does not match the header geometry (" +
                             std::to_string(NeedLen) + ")");

  ConceptLattice L;
  L.Concepts.resize(C);
  size_t Off = 0;
  // Word decode: one readLE64 per word keeps the loop endian-correct; on
  // little-endian hosts the format is the in-memory layout, so the whole
  // span is one memcpy (the tail-invariant check still touches every
  // vector afterwards).
  auto CopyWords = [&Body](uint64_t *Dst, size_t At, size_t NumWords) {
    if constexpr (std::endian::native == std::endian::little)
      std::memcpy(Dst, Body.data() + At, NumWords * 8);
    else
      for (size_t W = 0; W < NumWords; ++W)
        Dst[W] = readLE64(Body, At + W * 8);
  };
  for (size_t I = 0; I < C; ++I) {
    BitVector Ext(M.NumObjects);
    CopyWords(Ext.words(), Off, EW);
    Off += EW * 8;
    if (!Ext.tailIsClean())
      return artifactError(File, kPreambleSize + HeaderLen + Off - 8,
                           "extent " + std::to_string(I) +
                               " has bits past the object universe");
    L.Concepts[I].Extent = std::move(Ext);
  }
  for (size_t I = 0; I < C; ++I) {
    BitVector Int(M.NumAttributes);
    CopyWords(Int.words(), Off, IW);
    Off += IW * 8;
    if (!Int.tailIsClean())
      return artifactError(File, kPreambleSize + HeaderLen + Off - 8,
                           "intent " + std::to_string(I) +
                               " has bits past the attribute universe");
    L.Concepts[I].Intent = std::move(Int);
  }

  auto CopyU32 = [&Body](uint32_t *Dst, size_t At, size_t Num) {
    if constexpr (std::endian::native == std::endian::little)
      std::memcpy(Dst, Body.data() + At, Num * 4);
    else
      for (size_t I = 0; I < Num; ++I)
        Dst[I] = readLE32(Body, At + I * 4);
  };
  std::vector<uint32_t> Ids(E);
  auto ReadAdjacency =
      [&](std::vector<std::vector<NodeId>> &Adj) -> std::optional<size_t> {
    std::vector<uint32_t> Offsets(C + 1);
    CopyU32(Offsets.data(), Off, C + 1);
    Off += (C + 1) * 4;
    if (Offsets[0] != 0 || Offsets[C] != E)
      return Off - 4;
    for (size_t I = 0; I < C; ++I)
      if (Offsets[I] > Offsets[I + 1])
        return Off;
    CopyU32(Ids.data(), Off, E);
    for (size_t J = 0; J < E; ++J)
      if (Ids[J] >= C)
        return Off + J * 4;
    Adj.resize(C);
    for (size_t I = 0; I < C; ++I)
      Adj[I].assign(Ids.begin() + Offsets[I], Ids.begin() + Offsets[I + 1]);
    Off += E * 4;
    return std::nullopt;
  };
  if (std::optional<size_t> Bad = ReadAdjacency(L.Parents))
    return artifactError(File, kPreambleSize + HeaderLen + *Bad,
                         "malformed parent adjacency");
  if (std::optional<size_t> Bad = ReadAdjacency(L.Children))
    return artifactError(File, kPreambleSize + HeaderLen + *Bad,
                         "malformed child adjacency");

  // Cover symmetry: every parent edge must have exactly one matching child
  // edge — this is the hottest validation step on the warm startup path,
  // catching any adjacency-only bit flips the CRC pass was told to skip
  // (Header mode). For the lattice sizes the paper's protocols produce, a
  // C x C edge bitset makes it O(E): mark each child edge (rejecting
  // duplicates), then consume each parent edge; both multisets match iff
  // every mark is consumed exactly once. Past the quadratic-memory cutoff,
  // fall back to packing both edge multisets into u64 keys and sorting.
  bool Symmetric = true;
  if (C <= 2048) {
    std::vector<uint64_t> EdgeBits((C * C + 63) / 64, 0);
    size_t Marked = 0;
    for (size_t I = 0; I < C && Symmetric; ++I)
      for (NodeId Ch : L.Children[I]) {
        size_t Bit = I * C + Ch;
        if (EdgeBits[Bit / 64] & (1ull << (Bit % 64))) {
          Symmetric = false; // duplicate child edge
          break;
        }
        EdgeBits[Bit / 64] |= 1ull << (Bit % 64);
        ++Marked;
      }
    for (size_t I = 0; I < C && Symmetric; ++I)
      for (NodeId P : L.Parents[I]) {
        size_t Bit = static_cast<size_t>(P) * C + I;
        if (!(EdgeBits[Bit / 64] & (1ull << (Bit % 64)))) {
          Symmetric = false; // unmatched or duplicate parent edge
          break;
        }
        EdgeBits[Bit / 64] &= ~(1ull << (Bit % 64));
        --Marked;
      }
    Symmetric = Symmetric && Marked == 0;
  } else {
    std::vector<uint64_t> FromParents, FromChildren;
    FromParents.reserve(E);
    FromChildren.reserve(E);
    for (size_t I = 0; I < C; ++I) {
      for (NodeId P : L.Parents[I])
        FromParents.push_back(static_cast<uint64_t>(P) << 32 | I);
      for (NodeId Ch : L.Children[I])
        FromChildren.push_back(static_cast<uint64_t>(I) << 32 | Ch);
    }
    std::sort(FromParents.begin(), FromParents.end());
    std::sort(FromChildren.begin(), FromChildren.end());
    Symmetric = FromParents == FromChildren;
  }
  if (!Symmetric)
    return artifactError(File, kPreambleSize + HeaderLen + WordsLen,
                         "parent/child adjacency lists disagree");
  if (!L.Parents[*TopId].empty() || !L.Children[*BottomId].empty())
    return artifactError(File, kPreambleSize,
                         "stamped top/bottom have covers above/below");
  L.Top = static_cast<NodeId>(*TopId);
  L.Bottom = static_cast<NodeId>(*BottomId);
  return L;
}
