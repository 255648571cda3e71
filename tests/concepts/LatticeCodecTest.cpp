//===- tests/concepts/LatticeCodecTest.cpp ---------------------------------===//
//
// Part of the Cable reproduction of "Debugging Temporal Specifications with
// Concept Analysis" (PLDI 2003). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The `cable-lattice/1` codec: round-trip exactness (bytes, structure,
/// rendered DOT, traversal order), content-hash canonicality, and
/// rejection of a corpus of corrupted artifacts with positioned
/// diagnostics.
///
//===----------------------------------------------------------------------===//

#include "concepts/Lattice.h"

#include "concepts/NextClosureBuilder.h"
#include "support/AtomicFile.h"
#include "support/RNG.h"

#include <gtest/gtest.h>

#include <cstring>

using namespace cable;

namespace {

/// The animals-and-adjectives context used across the lattice suites.
Context animalsContext() {
  Context Ctx(4, 5);
  Ctx.relate(0, 0);
  Ctx.relate(0, 1);
  Ctx.relate(0, 2);
  Ctx.relate(1, 0);
  Ctx.relate(1, 1);
  Ctx.relate(1, 2);
  Ctx.relate(2, 0);
  Ctx.relate(2, 1);
  Ctx.relate(2, 3);
  Ctx.relate(3, 3);
  Ctx.relate(3, 4);
  return Ctx;
}

Context randomContext(size_t NObj, size_t NAttr, double Density,
                      uint64_t Seed) {
  Context Ctx(NObj, NAttr);
  RNG R(Seed);
  for (size_t O = 0; O < NObj; ++O)
    for (size_t A = 0; A < NAttr; ++A)
      if (R.nextDouble() < Density)
        Ctx.relate(O, A);
  return Ctx;
}

LatticeArtifactMeta metaFor(const Context &Ctx) {
  LatticeArtifactMeta M;
  M.ContextHash = Ctx.contentHash();
  M.Builder = "nextclosure";
  M.Budget = "full";
  M.NumObjects = Ctx.numObjects();
  M.NumAttributes = Ctx.numAttributes();
  return M;
}

std::string plainDot(const ConceptLattice &L) {
  return L.renderDot("t", [](ConceptLattice::NodeId Id) {
    return "n" + std::to_string(Id);
  });
}

/// Asserts \p A and \p B are indistinguishable through every public
/// surface label inheritance and rendering depend on.
void expectLatticesIdentical(const ConceptLattice &A,
                             const ConceptLattice &B) {
  ASSERT_EQ(A.size(), B.size());
  EXPECT_EQ(A.top(), B.top());
  EXPECT_EQ(A.bottom(), B.bottom());
  EXPECT_EQ(A.numEdges(), B.numEdges());
  for (ConceptLattice::NodeId Id = 0; Id < A.size(); ++Id) {
    EXPECT_TRUE(A.node(Id).Extent == B.node(Id).Extent) << "extent " << Id;
    EXPECT_TRUE(A.node(Id).Intent == B.node(Id).Intent) << "intent " << Id;
    EXPECT_EQ(A.parents(Id), B.parents(Id)) << "parents " << Id;
    EXPECT_EQ(A.children(Id), B.children(Id)) << "children " << Id;
  }
  EXPECT_EQ(A.topDownOrder(), B.topDownOrder());
  EXPECT_EQ(plainDot(A), plainDot(B));
}

/// Expects deserialize to fail, and the diagnostic to name the file and
/// carry a byte offset (positioned rejection, never a silent half-load).
void expectRejected(std::string_view Bytes, const LatticeArtifactMeta &Expect,
                    const char *MessagePart) {
  StatusOr<ConceptLattice> R = ConceptLattice::deserialize(
      Bytes, Expect, "artifact.bin");
  ASSERT_FALSE(R.isOk()) << "expected rejection: " << MessagePart;
  EXPECT_NE(R.status().message().find(MessagePart), std::string::npos)
      << "got: " << R.status().message();
  EXPECT_NE(R.status().message().find("byte offset"), std::string::npos)
      << "got: " << R.status().message();
  EXPECT_EQ(R.status().diagnostic().File, "artifact.bin");
}

} // namespace

TEST(LatticeCodecTest, RoundTripAnimals) {
  Context Ctx = animalsContext();
  ConceptLattice L = NextClosureBuilder::buildLattice(Ctx);
  LatticeArtifactMeta Meta = metaFor(Ctx);

  std::string Bytes = L.serialize(Meta);
  LatticeArtifactMeta Got;
  StatusOr<ConceptLattice> R = ConceptLattice::deserialize(
      Bytes, Meta, "artifact.bin", &Got);
  ASSERT_TRUE(R.isOk()) << R.status().message();
  expectLatticesIdentical(L, R.value());

  EXPECT_EQ(Got.ContextHash, Meta.ContextHash);
  EXPECT_EQ(Got.Builder, "nextclosure");
  EXPECT_EQ(Got.Budget, "full");
  EXPECT_EQ(Got.NumObjects, 4u);
  EXPECT_EQ(Got.NumAttributes, 5u);
  EXPECT_FALSE(Got.Truncated);

  // Re-serializing the decoded lattice reproduces the artifact
  // byte-for-byte: the codec is canonical, not merely faithful.
  EXPECT_EQ(R.value().serialize(Meta), Bytes);
}

TEST(LatticeCodecTest, RoundTripRandomContexts) {
  for (uint64_t Seed : {7u, 21u, 99u}) {
    Context Ctx = randomContext(40, 17, 0.3, Seed);
    ConceptLattice L = NextClosureBuilder::buildLattice(Ctx);
    LatticeArtifactMeta Meta = metaFor(Ctx);

    std::string Bytes = L.serialize(Meta);
    StatusOr<ConceptLattice> R = ConceptLattice::deserialize(
        Bytes, Meta, "artifact.bin");
    ASSERT_TRUE(R.isOk()) << "seed " << Seed << ": " << R.status().message();
    expectLatticesIdentical(L, R.value());
    EXPECT_EQ(R.value().serialize(Meta), Bytes) << "seed " << Seed;

    std::string Why;
    EXPECT_TRUE(R.value().verify(Ctx, &Why)) << Why;
  }
}

TEST(LatticeCodecTest, ExpectMismatchRejected) {
  Context Ctx = animalsContext();
  ConceptLattice L = NextClosureBuilder::buildLattice(Ctx);
  LatticeArtifactMeta Meta = metaFor(Ctx);
  std::string Bytes = L.serialize(Meta);

  LatticeArtifactMeta WrongHash = Meta;
  WrongHash.ContextHash = "0000000000000000";
  expectRejected(Bytes, WrongHash, "context hash");

  LatticeArtifactMeta WrongBuilder = Meta;
  WrongBuilder.Builder = "lindig";
  expectRejected(Bytes, WrongBuilder, "builder");

  LatticeArtifactMeta WrongBudget = Meta;
  WrongBudget.Budget = "mc10";
  expectRejected(Bytes, WrongBudget, "budget");

  LatticeArtifactMeta WrongShape = Meta;
  WrongShape.NumObjects = 5;
  expectRejected(Bytes, WrongShape, "object");

  // Empty Expect fields match anything: a bare probe decodes fine.
  LatticeArtifactMeta AnyMeta;
  EXPECT_TRUE(
      ConceptLattice::deserialize(Bytes, AnyMeta, "artifact.bin").isOk());
}

TEST(LatticeCodecTest, CorruptCorpusRejectedWithPosition) {
  Context Ctx = animalsContext();
  ConceptLattice L = NextClosureBuilder::buildLattice(Ctx);
  LatticeArtifactMeta Meta = metaFor(Ctx);
  std::string Bytes = L.serialize(Meta);

  // Zero-length and sub-preamble files.
  expectRejected("", Meta, "truncated preamble");
  expectRejected(Bytes.substr(0, 17), Meta, "truncated preamble");

  // Wrong magic.
  std::string BadMagic = Bytes;
  BadMagic[0] = 'X';
  expectRejected(BadMagic, Meta, "magic");

  // Unknown (future) format version at offset 8.
  std::string BadVersion = Bytes;
  BadVersion[8] = 99;
  expectRejected(BadVersion, Meta, "version");

  // Header CRC mismatch: flip a header byte.
  std::string BadHeader = Bytes;
  BadHeader[44] ^= 0x40;
  expectRejected(BadHeader, Meta, "header checksum");

  // Body CRC mismatch: flip a bit in the last body byte.
  std::string BadBody = Bytes;
  BadBody.back() ^= 0x01;
  expectRejected(BadBody, Meta, "body checksum");

  // Truncated body, by a byte and by a whole word: caught by the section
  // lengths before any CRC or body byte is looked at.
  expectRejected(Bytes.substr(0, Bytes.size() - 1), Meta, "length");
  expectRejected(Bytes.substr(0, Bytes.size() - 8), Meta, "length");

  // Trailing garbage.
  expectRejected(Bytes + "x", Meta, "length");
}

TEST(LatticeCodecTest, AsymmetricAdjacencyRejectedPastBodyCrc) {
  Context Ctx = animalsContext();
  ConceptLattice L = NextClosureBuilder::buildLattice(Ctx);
  LatticeArtifactMeta Meta = metaFor(Ctx);
  std::string Bytes = L.serialize(Meta);

  // Rewrite the low byte of the first parent id to a different (still
  // in-range) node: the CSR stays well-formed, only the parent/child
  // cover symmetry breaks. The body CRC at offset 20 is then rewritten to
  // match, so this is exactly the corruption only the symmetry check can
  // catch (a forged checksum, not a random bit flip).
  const size_t C = L.size();
  const size_t EW = (Meta.NumObjects + 63) / 64;
  const size_t IW = (Meta.NumAttributes + 63) / 64;
  uint32_t HeaderLen = 0;
  for (int B = 0; B < 4; ++B)
    HeaderLen |= static_cast<uint32_t>(
                     static_cast<unsigned char>(Bytes[12 + B]))
                 << (8 * B);
  size_t IdsAt = 40 + HeaderLen + C * (EW + IW) * 8 + (C + 1) * 4;
  ASSERT_LT(IdsAt, Bytes.size());
  unsigned OldId = static_cast<unsigned char>(Bytes[IdsAt]);
  Bytes[IdsAt] = static_cast<char>((OldId + 1) % C);
  uint32_t BodyCrc = crc32(std::string_view(Bytes).substr(40 + HeaderLen));
  for (int B = 0; B < 4; ++B)
    Bytes[20 + B] = static_cast<char>(BodyCrc >> (8 * B));

  StatusOr<ConceptLattice> R =
      ConceptLattice::deserialize(Bytes, Meta, "artifact.bin");
  ASSERT_FALSE(R.isOk());
  EXPECT_NE(R.status().message().find("adjacency lists disagree"),
            std::string::npos)
      << R.status().message();
}

TEST(LatticeCodecTest, ContentHashCanonicalAcrossKernels) {
  // The content hash is the cache key: it must depend only on the
  // relation (pinned, so a change to the word loops or the layout cannot
  // move the keys of existing artifacts), and separate contexts that
  // differ in one cell.
  Context Ctx = randomContext(65, 67, 0.25, 3);
  std::string Baseline = Ctx.contentHash();
  EXPECT_EQ(Baseline, "4436a719d73c8afc");

  Context Other = randomContext(65, 67, 0.25, 3);
  Other.relate(64, 66);
  EXPECT_NE(Other.contentHash(), Baseline);
}

TEST(LatticeCodecTest, TruncatedFlagRoundTrips) {
  Context Ctx = animalsContext();
  ConceptLattice L = NextClosureBuilder::buildLattice(Ctx);
  LatticeArtifactMeta Meta = metaFor(Ctx);
  Meta.Budget = "mc500";
  Meta.Truncated = true;

  LatticeArtifactMeta Got;
  StatusOr<ConceptLattice> R =
      ConceptLattice::deserialize(L.serialize(Meta), Meta,
                                  "artifact.bin", &Got);
  ASSERT_TRUE(R.isOk()) << R.status().message();
  EXPECT_TRUE(Got.Truncated);
  EXPECT_EQ(Got.Budget, "mc500");
}
